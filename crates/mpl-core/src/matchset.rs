//! The persistent match set of a pCFG state (the `matches` of §VI).
//!
//! Every analysis state carries the send–receive pairs matched on its
//! path. Along a path of k matches, a plain ordered set makes each step
//! cost O(k) (a successor copies the set to add one pair, admission
//! hashes it, the result re-inserts it), so the path costs O(k²) time
//! and memory. [`MatchSet`] makes each of those steps O(log k):
//!
//! * it is a persistent 16-way hash array mapped trie (Bagwell) over a
//!   hash of the pair: a node keeps a 16-bit bitmap of its occupied
//!   slots and one entry per set bit, either a pair stored inline or a
//!   child node, in one allocation. An insert copies only the
//!   ⌈log₁₆ k⌉ nodes on the path from the root, so a clone is one
//!   reference count bump and a successor shares everything else with
//!   its predecessor;
//! * the hash is [`mpl_domains::splitmix64`] of the packed pair, a
//!   bijection, so distinct pairs never collide: sixteen 4-bit levels
//!   spend the whole hash, and two pairs part at the last level at the
//!   latest;
//! * the trie's shape depends only on its contents (a pair sits at the
//!   shallowest level where its hash prefix is unique), so equal sets
//!   have equal shapes, and equality, union and difference can skip
//!   every subtree two sets share by pointer;
//! * the length and an order-canonical XOR fingerprint are updated on
//!   each insert, like [`mpl_domains::ConstraintGraph::fingerprint`].

use std::collections::HashSet;
use std::fmt;
use std::iter;
use std::sync::Arc;

use mpl_cfg::CfgNodeId;
use mpl_domains::splitmix64;

/// A `(send, recv)` pair of matched CFG nodes.
pub type MatchPair = (CfgNodeId, CfgNodeId);

/// Hash bits one trie level consumes: a node has up to 16 slots.
const BITS: u32 = 4;

/// Trie levels: enough to consume the whole 64-bit hash.
const LEVELS: u32 = u64::BITS / BITS;

/// A trie node: the bitmap of its occupied slots and their entries, in
/// slot order. The bitmap lives next to the pointer, so a node is one
/// allocation.
#[derive(Clone)]
struct Node {
    bitmap: u16,
    entries: Arc<[Entry]>,
}

/// One occupied slot of a [`Node`].
#[derive(Clone)]
enum Entry {
    /// The one packed pair (see [`pack`]) whose hash prefix ends here.
    Leaf(u64),
    /// Two or more pairs that share this slot's hash prefix.
    Node(Node),
}

fn pack((send, recv): MatchPair) -> u64 {
    (u64::from(send.0) << 32) | u64::from(recv.0)
}

fn unpack(key: u64) -> MatchPair {
    (CfgNodeId((key >> 32) as u32), CfgNodeId(key as u32))
}

fn hash(key: u64) -> u64 {
    splitmix64(key)
}

/// The bit of `h`'s slot at `depth`.
fn slot_bit(h: u64, depth: u32) -> u16 {
    debug_assert!(depth < LEVELS, "splitmix64 is a bijection");
    1 << ((h >> (depth * BITS)) & 0xF)
}

impl Node {
    /// The node holding just `entry` in the slot `bit`.
    fn single(bit: u16, entry: Entry) -> Node {
        Node {
            bitmap: bit,
            entries: Arc::from([entry]),
        }
    }

    /// The entry index of the slot `bit`, occupied or not.
    fn index(&self, bit: u16) -> usize {
        (self.bitmap & (bit - 1)).count_ones() as usize
    }

    /// The entry in the slot `bit`, if occupied.
    fn get(&self, bit: u16) -> Option<&Entry> {
        (self.bitmap & bit != 0).then(|| &self.entries[self.index(bit)])
    }

    /// A copy with `entry` in the free slot `bit`: one allocation.
    fn with_new(&self, bit: u16, entry: Entry) -> Node {
        let at = self.index(bit);
        let (before, after) = self.entries.split_at(at);
        Node {
            bitmap: self.bitmap | bit,
            entries: before
                .iter()
                .cloned()
                .chain(iter::once(entry))
                .chain(after.iter().cloned())
                .collect(),
        }
    }

    /// A copy with `entry` replacing the occupied slot `bit`'s: one
    /// allocation.
    fn with_replaced(&self, bit: u16, entry: Entry) -> Node {
        let at = self.index(bit);
        let mut entry = Some(entry);
        Node {
            bitmap: self.bitmap,
            entries: self
                .entries
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    if i == at {
                        entry.take().expect("one slot replaced")
                    } else {
                        e.clone()
                    }
                })
                .collect(),
        }
    }

    /// Identity of the node's allocation.
    fn id(&self) -> usize {
        Arc::as_ptr(&self.entries).cast::<Entry>() as usize
    }

    fn shares(&self, other: &Node) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }
}

/// A persistent set of matched `(send, recv)` pairs: O(1) clone, exact
/// O(log k) [`MatchSet::insert`] and [`MatchSet::contains`], cached
/// length and fingerprint.
#[derive(Clone, Default)]
pub struct MatchSet {
    root: Option<Node>,
    len: usize,
    fp: u64,
}

impl MatchSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> MatchSet {
        MatchSet::default()
    }

    /// Number of pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set holds no pair.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// An order-canonical 64-bit fingerprint of the contents: the XOR of
    /// the pairs' hashes, so any insertion order gives the same value.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Adds `pair`; returns `false` if it was already present. Copies
    /// only the nodes on the pair's path.
    pub fn insert(&mut self, pair: MatchPair) -> bool {
        self.insert_key(pack(pair))
    }

    fn insert_key(&mut self, key: u64) -> bool {
        let h = hash(key);
        let root = match &self.root {
            None => Node::single(slot_bit(h, 0), Entry::Leaf(key)),
            Some(root) => match insert_at(root, key, h, 0) {
                Some(root) => root,
                None => return false,
            },
        };
        self.root = Some(root);
        self.len += 1;
        self.fp ^= h;
        true
    }

    /// True if `pair` is in the set.
    #[must_use]
    pub fn contains(&self, pair: &MatchPair) -> bool {
        let key = pack(*pair);
        self.root
            .as_ref()
            .is_some_and(|root| contains_at(root, key, hash(key), 0))
    }

    /// The pairs in ascending order. Sorting makes this O(k log k); the
    /// engine's per-step paths use [`MatchSet::for_each_missing`] instead.
    pub fn iter(&self) -> impl Iterator<Item = MatchPair> {
        let mut keys = Vec::with_capacity(self.len);
        if let Some(root) = &self.root {
            for_each_key(root, &mut |k| keys.push(k));
        }
        keys.sort_unstable();
        keys.into_iter().map(unpack)
    }

    /// The pairs of `self` that are not in `other`, in ascending order.
    /// Subtrees the two sets share are skipped, so for a set derived
    /// from `other` by a few inserts this costs O(inserts · log k).
    #[must_use]
    pub fn difference(&self, other: &MatchSet) -> Vec<MatchPair> {
        let mut keys = self.missing_from(other);
        keys.sort_unstable();
        keys.into_iter().map(unpack).collect()
    }

    /// Calls `f` on each pair of `self` that is not in `other`, in no
    /// particular order, skipping the subtrees the two sets share, as
    /// [`MatchSet::difference`] does, but without collecting the pairs.
    pub fn for_each_missing(&self, other: &MatchSet, mut f: impl FnMut(MatchPair)) {
        let mut push = |key| f(unpack(key));
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => missing_from(a, b, 0, &mut push),
            (Some(a), None) => for_each_key(a, &mut push),
            (None, _) => {}
        }
    }

    /// The union of two sets (match-set join under widening). Starts
    /// from the larger set and inserts the other's missing pairs.
    #[must_use]
    pub fn union(&self, other: &MatchSet) -> MatchSet {
        let (big, small) = if self.len >= other.len {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = big.clone();
        for key in small.missing_from(big) {
            out.insert_key(key);
        }
        out
    }

    /// The packed pairs of `self` not in `other`, in trie order.
    fn missing_from(&self, other: &MatchSet) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut push = |key| keys.push(key);
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => missing_from(a, b, 0, &mut push),
            (Some(a), None) => for_each_key(a, &mut push),
            (None, _) => {}
        }
        keys
    }

    /// Estimated heap bytes of the trie, skipping nodes whose identity
    /// is already in `seen`: a store of states that share path prefixes
    /// counts each shared node once.
    pub(crate) fn approx_bytes(&self, seen: &mut HashSet<usize>) -> usize {
        // The Arc's strong and weak counts, then the entries.
        const HEADER_BYTES: usize = 2 * std::mem::size_of::<usize>();
        fn walk(node: &Node, seen: &mut HashSet<usize>) -> usize {
            if !seen.insert(node.id()) {
                return 0; // Counted with its whole subtree already.
            }
            let children: usize = node
                .entries
                .iter()
                .map(|e| match e {
                    Entry::Leaf(_) => 0,
                    Entry::Node(child) => walk(child, seen),
                })
                .sum();
            HEADER_BYTES + std::mem::size_of_val::<[Entry]>(&node.entries) + children
        }
        self.root.as_ref().map_or(0, |root| walk(root, seen))
    }
}

/// Inserts `key` (hash `h`) below `node` at `depth`; returns the copied
/// node, or `None` if the key is already present.
fn insert_at(node: &Node, key: u64, h: u64, depth: u32) -> Option<Node> {
    let bit = slot_bit(h, depth);
    let entry = match node.get(bit) {
        None => return Some(node.with_new(bit, Entry::Leaf(key))),
        Some(Entry::Leaf(k)) if *k == key => return None,
        Some(Entry::Leaf(k)) => Entry::Node(join_leaves(*k, hash(*k), key, h, depth + 1)),
        Some(Entry::Node(child)) => Entry::Node(insert_at(child, key, h, depth + 1)?),
    };
    Some(node.with_replaced(bit, entry))
}

/// The subtree holding exactly the two pairs `a` and `b` (distinct
/// hashes `ah`, `bh`, equal below `depth`): single-slot nodes down to the
/// first level where the hashes differ.
fn join_leaves(a: u64, ah: u64, b: u64, bh: u64, depth: u32) -> Node {
    let (a_bit, b_bit) = (slot_bit(ah, depth), slot_bit(bh, depth));
    if a_bit == b_bit {
        return Node::single(a_bit, Entry::Node(join_leaves(a, ah, b, bh, depth + 1)));
    }
    let (first, second) = if a_bit < b_bit { (a, b) } else { (b, a) };
    Node {
        bitmap: a_bit | b_bit,
        entries: Arc::from([Entry::Leaf(first), Entry::Leaf(second)]),
    }
}

fn contains_at(mut node: &Node, key: u64, h: u64, mut depth: u32) -> bool {
    loop {
        match node.get(slot_bit(h, depth)) {
            None => return false,
            Some(Entry::Leaf(k)) => return *k == key,
            Some(Entry::Node(child)) => {
                node = child;
                depth += 1;
            }
        }
    }
}

/// True if the slot `entry` (at `depth`) holds `key`.
fn entry_contains(entry: &Entry, key: u64, depth: u32) -> bool {
    match entry {
        Entry::Leaf(k) => *k == key,
        Entry::Node(node) => contains_at(node, key, hash(key), depth),
    }
}

fn for_each_key(node: &Node, f: &mut impl FnMut(u64)) {
    for entry in node.entries.iter() {
        for_each_entry_key(entry, f);
    }
}

fn for_each_entry_key(entry: &Entry, f: &mut impl FnMut(u64)) {
    match entry {
        Entry::Leaf(k) => f(*k),
        Entry::Node(node) => for_each_key(node, f),
    }
}

/// The set bits of `bitmap`, lowest first.
fn bits(mut bitmap: u16) -> impl Iterator<Item = u16> {
    iter::from_fn(move || {
        let bit = bitmap & bitmap.wrapping_neg();
        bitmap ^= bit;
        (bit != 0).then_some(bit)
    })
}

/// Calls `out` on the keys under `a` that are not under `b` (both nodes
/// at `depth` on the same hash prefix).
fn missing_from(a: &Node, b: &Node, depth: u32, out: &mut impl FnMut(u64)) {
    if a.shares(b) {
        return;
    }
    for (bit, x) in bits(a.bitmap).zip(a.entries.iter()) {
        let Some(y) = b.get(bit) else {
            for_each_entry_key(x, out);
            continue;
        };
        match (x, y) {
            (Entry::Leaf(k), _) => {
                if !entry_contains(y, *k, depth + 1) {
                    out(*k);
                }
            }
            (Entry::Node(x), Entry::Leaf(k)) => for_each_key(x, &mut |key| {
                if key != *k {
                    out(key);
                }
            }),
            (Entry::Node(x), Entry::Node(y)) => missing_from(x, y, depth + 1, out),
        }
    }
}

/// Structural equality; exact because the trie's shape is canonical.
fn nodes_eq(a: &Node, b: &Node) -> bool {
    a.shares(b)
        || a.bitmap == b.bitmap
            && a.entries
                .iter()
                .zip(b.entries.iter())
                .all(|pair| match pair {
                    (Entry::Leaf(p), Entry::Leaf(q)) => p == q,
                    (Entry::Node(x), Entry::Node(y)) => nodes_eq(x, y),
                    _ => false,
                })
}

impl PartialEq for MatchSet {
    /// Rejects on a length or fingerprint mismatch, accepts a shared
    /// root, and otherwise compares the tries below their shared parts.
    fn eq(&self, other: &MatchSet) -> bool {
        self.len == other.len
            && self.fp == other.fp
            && match (&self.root, &other.root) {
                (Some(a), Some(b)) => nodes_eq(a, b),
                (a, b) => a.is_none() && b.is_none(),
            }
    }
}

impl Eq for MatchSet {}

impl fmt::Debug for MatchSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<MatchPair> for MatchSet {
    fn from_iter<I: IntoIterator<Item = MatchPair>>(iter: I) -> MatchSet {
        let mut set = MatchSet::new();
        for pair in iter {
            set.insert(pair);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use mpl_rng::Rng64;

    use super::*;

    /// A random pair over a small node range, so inserts repeat.
    fn pair(rng: &mut Rng64, nodes: u64) -> MatchPair {
        (
            CfgNodeId(rng.u64_in(0, nodes) as u32),
            CfgNodeId(rng.u64_in(0, nodes) as u32),
        )
    }

    /// `n` random inserts, checked against a `BTreeSet` oracle.
    fn random_set(rng: &mut Rng64, n: usize, nodes: u64) -> (MatchSet, BTreeSet<MatchPair>) {
        let (mut set, mut oracle) = (MatchSet::new(), BTreeSet::new());
        for _ in 0..n {
            let p = pair(rng, nodes);
            assert_eq!(set.insert(p), oracle.insert(p), "insert {p:?}");
        }
        (set, oracle)
    }

    fn contents(set: &MatchSet) -> Vec<MatchPair> {
        set.iter().collect()
    }

    /// The inverse of [`splitmix64`]: undoes each xor-shift and each
    /// multiplication (by the constant's inverse modulo 2^64).
    fn unsplitmix64(mut z: u64) -> u64 {
        fn unshift(y: u64, s: u32) -> u64 {
            let mut x = y;
            for _ in 0..u64::BITS / s {
                x = y ^ (x >> s);
            }
            x
        }
        fn inverse(c: u64) -> u64 {
            let mut inv = c;
            for _ in 0..6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv)));
            }
            inv
        }
        z = unshift(z, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(z, 30)
    }

    /// The pair whose hash is `h`.
    fn pair_with_hash(h: u64) -> MatchPair {
        let key = unsplitmix64(h);
        assert_eq!(hash(key), h);
        unpack(key)
    }

    /// Depth of the deepest stored pair: the levels a lookup walks.
    fn depth(set: &MatchSet) -> u32 {
        fn walk(node: &Node) -> u32 {
            1 + node
                .entries
                .iter()
                .map(|e| match e {
                    Entry::Leaf(_) => 0,
                    Entry::Node(child) => walk(child),
                })
                .max()
                .unwrap_or(0)
        }
        set.root.as_ref().map_or(0, walk)
    }

    #[test]
    fn insert_contains_len_and_iter_match_the_oracle() {
        let mut rng = Rng64::seed_from_u64(11);
        for round in 0..200 {
            let n = rng.index(120);
            let (set, oracle) = random_set(&mut rng, n, 24);
            assert_eq!(set.len(), oracle.len(), "round {round}");
            assert_eq!(set.is_empty(), oracle.is_empty());
            assert_eq!(contents(&set), oracle.iter().copied().collect::<Vec<_>>());
            for _ in 0..50 {
                let p = pair(&mut rng, 24);
                assert_eq!(set.contains(&p), oracle.contains(&p), "{p:?}");
            }
        }
    }

    #[test]
    fn union_and_difference_match_the_oracle() {
        let mut rng = Rng64::seed_from_u64(12);
        for _ in 0..200 {
            let n = rng.index(80);
            let (a, ao) = random_set(&mut rng, n, 16);
            let n = rng.index(80);
            let (b, bo) = random_set(&mut rng, n, 16);
            let u = a.union(&b);
            let uo: BTreeSet<MatchPair> = ao.union(&bo).copied().collect();
            assert_eq!(contents(&u), uo.iter().copied().collect::<Vec<_>>());
            assert_eq!(u.len(), uo.len());
            assert_eq!(u, b.union(&a));
            assert_eq!(u, uo.iter().copied().collect::<MatchSet>());
            assert_eq!(
                a.difference(&b),
                ao.difference(&bo).copied().collect::<Vec<_>>()
            );
            let mut missing = BTreeSet::new();
            a.for_each_missing(&b, |p| assert!(missing.insert(p), "{p:?} twice"));
            assert_eq!(missing, ao.difference(&bo).copied().collect());
        }
    }

    /// Pairs whose hashes agree on their first `shared` levels and part
    /// at the next one, inserted into random sets in every order: the
    /// trie grows single-slot nodes down to the parting level and still
    /// answers like the oracle.
    #[test]
    fn hash_prefix_collisions_at_every_depth_match_the_oracle() {
        let mut rng = Rng64::seed_from_u64(17);
        for shared in [1, 2, 5, 9, 14, LEVELS - 1] {
            let base = rng.next_u64();
            // Flip one bit of the parting level's nibble, and one more
            // pair that parts a level later still.
            let part = 1u64 << (shared * BITS);
            let mut colliding = vec![pair_with_hash(base), pair_with_hash(base ^ part)];
            if shared + 1 < LEVELS {
                colliding.push(pair_with_hash(base ^ (part << BITS)));
            }
            for _ in 0..20 {
                let n = rng.index(60);
                let (mut set, mut oracle) = random_set(&mut rng, n, 1 << 10);
                for i in (1..colliding.len()).rev() {
                    colliding.swap(i, rng.index(i + 1));
                }
                for &p in &colliding {
                    assert_eq!(set.insert(p), oracle.insert(p), "shared {shared}: {p:?}");
                }
                assert!(depth(&set) > shared, "shared {shared}: {}", depth(&set));
                assert_eq!(contents(&set), oracle.iter().copied().collect::<Vec<_>>());
                for p in &colliding {
                    assert!(set.contains(p));
                }
                // A pair on the colliding path but never inserted.
                let absent = pair_with_hash(base ^ (part << 1));
                assert_eq!(set.contains(&absent), oracle.contains(&absent));
                let without: MatchSet = oracle
                    .iter()
                    .copied()
                    .filter(|p| !colliding.contains(p))
                    .collect();
                let missing: BTreeSet<MatchPair> = colliding.iter().copied().collect();
                assert_eq!(
                    set.difference(&without),
                    missing.iter().copied().collect::<Vec<_>>()
                );
                assert!(without.difference(&set).is_empty());
                assert_eq!(without.union(&set), set);
            }
        }
    }

    #[test]
    fn derived_sets_share_structure_in_difference_and_union() {
        let mut rng = Rng64::seed_from_u64(13);
        let (base, oracle) = random_set(&mut rng, 300, 1 << 12);
        let mut grown = base.clone();
        let mut added = BTreeSet::new();
        for _ in 0..5 {
            let p = pair(&mut rng, 1 << 12);
            if grown.insert(p) {
                added.insert(p);
            }
        }
        assert_eq!(
            grown.difference(&base),
            added.iter().copied().collect::<Vec<_>>()
        );
        assert!(base.difference(&grown).is_empty());
        let all: BTreeSet<MatchPair> = oracle.union(&added).copied().collect();
        assert_eq!(
            contents(&base.union(&grown)),
            all.into_iter().collect::<Vec<_>>()
        );
        // Two sets grown apart from one base share every untouched
        // subtree: their union holds both sets' additions, and the
        // union of a set with its own derivative is the derivative.
        let mut other = base.clone();
        let mut other_added = BTreeSet::new();
        for _ in 0..5 {
            let p = pair(&mut rng, 1 << 12);
            if other.insert(p) {
                other_added.insert(p);
            }
        }
        let both: BTreeSet<MatchPair> = oracle
            .iter()
            .chain(&added)
            .chain(&other_added)
            .copied()
            .collect();
        assert_eq!(
            contents(&grown.union(&other)),
            both.into_iter().collect::<Vec<_>>()
        );
        assert_eq!(base.union(&grown), grown);
        assert!(grown
            .union(&base)
            .root
            .as_ref()
            .unwrap()
            .shares(grown.root.as_ref().unwrap()));
    }

    #[test]
    fn eq_is_semantic_and_fingerprint_order_independent() {
        let mut rng = Rng64::seed_from_u64(14);
        for _ in 0..100 {
            let n = rng.index(100);
            let (set, oracle) = random_set(&mut rng, n, 32);
            let mut pairs: Vec<MatchPair> = oracle.iter().copied().collect();
            // Reinsert in a shuffled order: same contents, same value.
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.index(i + 1));
            }
            let shuffled: MatchSet = pairs.iter().copied().collect();
            assert_eq!(shuffled.fingerprint(), set.fingerprint());
            assert_eq!(shuffled, set);
            assert_eq!(depth(&shuffled), depth(&set), "canonical shape");
            let mut other = set.clone();
            let extra = pair(&mut rng, 32);
            let grew = other.insert(extra);
            assert_eq!(other == set, !grew);
            assert_eq!(other.fingerprint() == set.fingerprint(), !grew);
        }
        assert_eq!(MatchSet::new(), MatchSet::default());
        assert_eq!(MatchSet::new().fingerprint(), 0);
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_unchanged() {
        let mut rng = Rng64::seed_from_u64(15);
        for _ in 0..100 {
            let n = rng.index(100);
            let (set, oracle) = random_set(&mut rng, n, 32);
            let (len, fp) = (set.len(), set.fingerprint());
            let mut copy = set.clone();
            for _ in 0..20 {
                copy.insert(pair(&mut rng, 64));
            }
            let _ = copy.union(&set);
            assert_eq!((set.len(), set.fingerprint()), (len, fp));
            assert_eq!(contents(&set), oracle.iter().copied().collect::<Vec<_>>());
        }
    }

    #[test]
    fn approx_bytes_counts_shared_nodes_once() {
        let mut rng = Rng64::seed_from_u64(16);
        let (base, _) = random_set(&mut rng, 200, 1 << 12);
        let mut seen = HashSet::new();
        let alone = base.approx_bytes(&mut seen);
        assert!(alone > 0);
        assert_eq!(base.clone().approx_bytes(&mut seen), 0, "clone is free");
        let mut grown = base.clone();
        grown.insert((CfgNodeId(1 << 20), CfgNodeId(7)));
        let delta = grown.approx_bytes(&mut seen);
        assert!(
            delta > 0 && delta < alone / 4,
            "path copy only: {delta} of {alone}"
        );
        // A second set grown from the same base shares the same nodes:
        // only its own path copy is new.
        let mut sibling = base.clone();
        sibling.insert((CfgNodeId(1 << 21), CfgNodeId(9)));
        let sibling_delta = sibling.approx_bytes(&mut seen);
        assert!(sibling_delta > 0 && sibling_delta < alone / 4);
        // Equal contents built apart share nothing, and count in full.
        let rebuilt: MatchSet = base.iter().collect();
        assert_eq!(rebuilt, base);
        assert_eq!(rebuilt.approx_bytes(&mut HashSet::new()), alone);
        assert_eq!(rebuilt.approx_bytes(&mut seen), alone);
    }

    #[test]
    fn inserts_copy_a_logarithmic_path() {
        // An insert copies the nodes above its pair. Over 4 096 pairs a
        // 16-way trie holds a pair about log16(4096) = 3 levels down on
        // average (a binary trie, 12), and one birthday collision deeper
        // at the most.
        fn leaf_depths(node: &Node, depth: u32, out: &mut Vec<u32>) {
            for entry in node.entries.iter() {
                match entry {
                    Entry::Leaf(_) => out.push(depth),
                    Entry::Node(child) => leaf_depths(child, depth + 1, out),
                }
            }
        }
        let set: MatchSet = (0..4096u32).map(|i| (CfgNodeId(i), CfgNodeId(i))).collect();
        let mut depths = Vec::new();
        leaf_depths(set.root.as_ref().unwrap(), 1, &mut depths);
        assert_eq!(depths.len(), 4096);
        let mean = f64::from(depths.iter().sum::<u32>()) / 4096.0;
        assert!((3.0..4.5).contains(&mean), "mean depth {mean}");
        assert!(depth(&set) <= 8, "{}", depth(&set));
    }
}
