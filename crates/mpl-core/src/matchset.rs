//! The persistent match set of a pCFG state (the `matches` of §VI).
//!
//! Every analysis state carries the send–receive pairs matched on its
//! path. Along a path of k matches, a plain ordered set makes each step
//! cost O(k) (a successor copies the set to add one pair, admission
//! hashes it, the result re-inserts it), so the path costs O(k²) time
//! and memory. [`MatchSet`] makes each of those steps O(log k):
//!
//! * it is a persistent binary trie over a hash of the pair: an insert
//!   copies only the path from the root, so a clone is one reference
//!   count bump and a successor shares everything else with its
//!   predecessor;
//! * the hash is [`mpl_domains::splitmix64`] of the packed pair, a
//!   bijection, so distinct pairs never collide and every leaf holds
//!   exactly one pair;
//! * the trie's shape depends only on its contents (a leaf sits at the
//!   shallowest depth where its hash prefix is unique), so equal sets
//!   have equal shapes, and equality, union and difference can skip
//!   every subtree two sets share by pointer;
//! * the length and an order-canonical XOR fingerprint are updated on
//!   each insert, like [`mpl_domains::ConstraintGraph::fingerprint`].

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use mpl_cfg::CfgNodeId;
use mpl_domains::splitmix64;

/// A `(send, recv)` pair of matched CFG nodes.
pub type MatchPair = (CfgNodeId, CfgNodeId);

type Link = Option<Arc<Node>>;

enum Node {
    /// One packed pair (see [`pack`]).
    Leaf(u64),
    /// Children for hash bit 0 and hash bit 1 at this depth.
    Branch(Link, Link),
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

fn bit(h: u64, depth: u32) -> bool {
    (h >> depth) & 1 == 1
}

/// A persistent set of matched `(send, recv)` pairs: O(1) clone, exact
/// O(log k) [`MatchSet::insert`] and [`MatchSet::contains`], cached
/// length and fingerprint.
#[derive(Clone, Default)]
pub struct MatchSet {
    root: Link,
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
        match insert_at(&self.root, key, h, 0) {
            Some(root) => {
                self.root = Some(root);
                self.len += 1;
                self.fp ^= h;
                true
            }
            None => false,
        }
    }

    /// True if `pair` is in the set.
    #[must_use]
    pub fn contains(&self, pair: &MatchPair) -> bool {
        let key = pack(*pair);
        contains_at(&self.root, key, hash(key), 0)
    }

    /// The pairs in ascending order. Sorting makes this O(k log k); the
    /// engine's per-step paths use [`MatchSet::difference`] instead.
    pub fn iter(&self) -> impl Iterator<Item = MatchPair> {
        let mut keys = Vec::with_capacity(self.len);
        for_each_key(&self.root, &mut |k| keys.push(k));
        keys.sort_unstable();
        keys.into_iter().map(unpack)
    }

    /// The pairs of `self` that are not in `other`, in ascending order.
    /// Subtrees the two sets share are skipped, so for a set derived
    /// from `other` by a few inserts this costs O(inserts · log k).
    #[must_use]
    pub fn difference(&self, other: &MatchSet) -> Vec<MatchPair> {
        let mut keys = Vec::new();
        missing_from(&self.root, &other.root, 0, &mut keys);
        keys.sort_unstable();
        keys.into_iter().map(unpack).collect()
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
        let mut keys = Vec::new();
        missing_from(&small.root, &big.root, 0, &mut keys);
        for key in keys {
            out.insert_key(key);
        }
        out
    }

    /// Estimated heap bytes of the trie, skipping nodes whose identity
    /// is already in `seen`: a store of states that share path prefixes
    /// counts each shared node once.
    pub(crate) fn approx_bytes(&self, seen: &mut HashSet<usize>) -> usize {
        // Node plus the Arc's strong and weak counts.
        const NODE_BYTES: usize = std::mem::size_of::<Node>() + 2 * std::mem::size_of::<usize>();
        fn walk(link: &Link, seen: &mut HashSet<usize>) -> usize {
            let Some(node) = link else { return 0 };
            if !seen.insert(Arc::as_ptr(node) as usize) {
                return 0; // Counted with its whole subtree already.
            }
            NODE_BYTES
                + match &**node {
                    Node::Leaf(_) => 0,
                    Node::Branch(l, r) => walk(l, seen) + walk(r, seen),
                }
        }
        walk(&self.root, seen)
    }
}

/// Inserts `key` (hash `h`) below `link` at `depth`; returns the new
/// subtree, or `None` if the key is already present.
fn insert_at(link: &Link, key: u64, h: u64, depth: u32) -> Option<Arc<Node>> {
    let Some(node) = link else {
        return Some(Arc::new(Node::Leaf(key)));
    };
    match &**node {
        Node::Leaf(k) if *k == key => None,
        Node::Leaf(k) => Some(join_leaves(
            Arc::clone(node),
            hash(*k),
            Arc::new(Node::Leaf(key)),
            h,
            depth,
        )),
        Node::Branch(l, r) => Some(Arc::new(if bit(h, depth) {
            Node::Branch(l.clone(), Some(insert_at(r, key, h, depth + 1)?))
        } else {
            Node::Branch(Some(insert_at(l, key, h, depth + 1)?), r.clone())
        })),
    }
}

/// The subtree holding exactly the two leaves `a` and `b` (distinct
/// hashes `ah`, `bh`) at `depth`: branches down to the first bit where
/// the hashes differ.
fn join_leaves(a: Arc<Node>, ah: u64, b: Arc<Node>, bh: u64, depth: u32) -> Arc<Node> {
    debug_assert_ne!(ah, bh, "splitmix64 is a bijection");
    let (a_bit, b_bit) = (bit(ah, depth), bit(bh, depth));
    Arc::new(if a_bit == b_bit {
        let below = Some(join_leaves(a, ah, b, bh, depth + 1));
        if a_bit {
            Node::Branch(None, below)
        } else {
            Node::Branch(below, None)
        }
    } else if a_bit {
        Node::Branch(Some(b), Some(a))
    } else {
        Node::Branch(Some(a), Some(b))
    })
}

fn contains_at(mut link: &Link, key: u64, h: u64, mut depth: u32) -> bool {
    while let Some(node) = link {
        match &**node {
            Node::Leaf(k) => return *k == key,
            Node::Branch(l, r) => {
                link = if bit(h, depth) { r } else { l };
                depth += 1;
            }
        }
    }
    false
}

fn for_each_key(link: &Link, f: &mut impl FnMut(u64)) {
    match link.as_deref() {
        None => {}
        Some(Node::Leaf(k)) => f(*k),
        Some(Node::Branch(l, r)) => {
            for_each_key(l, f);
            for_each_key(r, f);
        }
    }
}

/// Pushes the keys under `a` that are not under `b` (both subtrees at
/// `depth` on the same hash prefix) onto `out`.
fn missing_from(a: &Link, b: &Link, depth: u32, out: &mut Vec<u64>) {
    let (Some(x), Some(y)) = (a, b) else {
        // Nothing on the left, or nothing to subtract on the right.
        for_each_key(a, &mut |k| out.push(k));
        return;
    };
    if Arc::ptr_eq(x, y) {
        return;
    }
    match (&**x, &**y) {
        (Node::Leaf(k), _) => {
            if !contains_at(b, *k, hash(*k), depth) {
                out.push(*k);
            }
        }
        (Node::Branch(..), Node::Leaf(k)) => for_each_key(a, &mut |key| {
            if key != *k {
                out.push(key);
            }
        }),
        (Node::Branch(al, ar), Node::Branch(bl, br)) => {
            missing_from(al, bl, depth + 1, out);
            missing_from(ar, br, depth + 1, out);
        }
    }
}

/// Structural equality; exact because the trie's shape is canonical.
fn links_eq(a: &Link, b: &Link) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            Arc::ptr_eq(x, y)
                || match (&**x, &**y) {
                    (Node::Leaf(p), Node::Leaf(q)) => p == q,
                    (Node::Branch(al, ar), Node::Branch(bl, br)) => {
                        links_eq(al, bl) && links_eq(ar, br)
                    }
                    _ => false,
                }
        }
        _ => false,
    }
}

impl PartialEq for MatchSet {
    /// Rejects on a length or fingerprint mismatch, accepts a shared
    /// root, and otherwise compares the tries below their shared parts.
    fn eq(&self, other: &MatchSet) -> bool {
        self.len == other.len && self.fp == other.fp && links_eq(&self.root, &other.root)
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
    }
}
