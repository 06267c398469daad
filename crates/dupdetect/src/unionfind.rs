//! Disjoint-set forest (union-find) with path compression and union by
//! rank — the transitive closure over duplicate pairs (paper §2.3: "the
//! transitive closure over duplicate pairs is formed to obtain clusters of
//! objects that all represent a single real-world entity").
//!
//! ## Determinism
//!
//! The internal *representative* of a set (what [`UnionFind::find`]
//! returns) depends on the order unions were applied in — union-by-rank
//! picks whichever root happens to be taller. That order varies with pair
//! scoring order, so representatives must never leak into user-visible
//! output. The public cluster views are therefore **normalized**:
//! [`UnionFind::clusters`] orders members ascending and clusters by their
//! smallest member, and [`UnionFind::cluster_ids`] numbers clusters densely
//! in that same order. Both are invariant under any permutation of the
//! union sequence (pinned by the `representative_independence_*` regression
//! tests below), which is what lets the parallel detector score pairs in
//! any partition and still produce bit-identical `objectID`s.

/// A disjoint-set forest over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The representative of `x`'s set (with path compression).
    ///
    /// The representative is an implementation detail that depends on the
    /// order unions were applied — do not expose it; derive output from
    /// the normalized [`UnionFind::clusters`]/[`UnionFind::cluster_ids`]
    /// views instead.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Compress.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`; returns true if they were separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Both normalized views in one walk over `0..n`: the dense cluster id
    /// of every element, and the clusters' members.
    ///
    /// Walking the elements in order meets each cluster first at its
    /// smallest member, so numbering clusters as they are met orders them
    /// by smallest member, and appending each element to its cluster lists
    /// the members ascending — no map, no sort.
    pub fn cluster_views(&mut self) -> (Vec<usize>, Vec<Vec<usize>>) {
        let n = self.len();
        let mut id_of_root = vec![usize::MAX; n];
        let mut ids = Vec::with_capacity(n);
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for x in 0..n {
            let root = self.find(x);
            if id_of_root[root] == usize::MAX {
                id_of_root[root] = clusters.len();
                clusters.push(Vec::new());
            }
            let id = id_of_root[root];
            clusters[id].push(x);
            ids.push(id);
        }
        (ids, clusters)
    }

    /// The clusters, each sorted ascending, ordered by their smallest
    /// member. Singletons are included.
    pub fn clusters(&mut self) -> Vec<Vec<usize>> {
        self.cluster_views().1
    }

    /// Cluster ids: `ids[x]` is the dense id (0-based, ordered by smallest
    /// member) of `x`'s cluster — this becomes the `objectID` column.
    pub fn cluster_ids(&mut self) -> Vec<usize> {
        self.cluster_views().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.clusters(), vec![vec![0], vec![1], vec![2]]);
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn union_and_transitivity() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already connected transitively
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.clusters(), vec![vec![0, 1, 2], vec![3], vec![4]]);
    }

    #[test]
    fn cluster_ids_are_dense_and_ordered() {
        let mut uf = UnionFind::new(4);
        uf.union(2, 3);
        let ids = uf.cluster_ids();
        assert_eq!(ids, vec![0, 1, 2, 2]);
    }

    #[test]
    fn large_chain_compresses() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert!(uf.connected(0, n - 1));
        assert_eq!(uf.clusters().len(), 1);
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.clusters().is_empty());
        assert!(uf.cluster_ids().is_empty());
    }

    /// A tiny deterministic shuffle (multiplicative LCG indexing) so the
    /// tests need no RNG dependency.
    fn permuted<T: Clone>(xs: &[T], seed: u64) -> Vec<T> {
        let mut out: Vec<T> = xs.to_vec();
        let n = out.len();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            out.swap(i, j);
        }
        out
    }

    /// Regression (ISSUE 3 audit): the normalized cluster views must not
    /// depend on the order pairs were unioned in — the parallel detector
    /// merges chunk results in an order that differs from any particular
    /// scoring order, and `objectID`s must come out identical anyway.
    #[test]
    fn representative_independence_under_pair_reordering() {
        // A mix of chains, stars, and singletons over 24 elements.
        let pairs: Vec<(usize, usize)> = vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0), // cycle
            (5, 9),
            (9, 11),
            (5, 11),
            (12, 13),
            (14, 13),
            (15, 14),
            (16, 15),
            (20, 21),
            (22, 21),
        ];
        let mut reference = UnionFind::new(24);
        for &(a, b) in &pairs {
            reference.union(a, b);
        }
        let ref_clusters = reference.clusters();
        let ref_ids = reference.cluster_ids();
        for seed in 0..32 {
            let mut uf = UnionFind::new(24);
            for &(a, b) in &permuted(&pairs, seed) {
                uf.union(a, b);
            }
            assert_eq!(uf.clusters(), ref_clusters, "seed {seed}");
            assert_eq!(uf.cluster_ids(), ref_ids, "seed {seed}");
        }
        // Reversed insertion, and each pair flipped, too.
        let mut uf = UnionFind::new(24);
        for &(a, b) in pairs.iter().rev() {
            uf.union(b, a);
        }
        assert_eq!(uf.clusters(), ref_clusters);
        assert_eq!(uf.cluster_ids(), ref_ids);
    }

    /// The views as they were computed before the single walk: members
    /// grouped by representative through a map, clusters sorted by their
    /// smallest member, ids read off the sorted clusters.
    fn oracle_views(uf: &mut UnionFind) -> (Vec<usize>, Vec<Vec<usize>>) {
        let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for x in 0..uf.len() {
            let r = uf.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut clusters: Vec<Vec<usize>> = by_root.into_values().collect();
        clusters.sort_by_key(|c| c[0]);
        let mut ids = vec![0usize; uf.len()];
        for (cid, members) in clusters.iter().enumerate() {
            for &m in members {
                ids[m] = cid;
            }
        }
        (ids, clusters)
    }

    /// The single walk against the map-and-sort oracle over random union
    /// sequences: chains, stars and singletons mixed, sizes 0–2000.
    #[test]
    fn cluster_views_equal_the_map_and_sort_oracle() {
        let mut state = 0x2005u64;
        let mut next = |below: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % below.max(1)
        };
        for n in [0, 1, 2, 3, 10, 64, 257, 2000] {
            for round in 0..4 {
                let mut uf = UnionFind::new(n);
                let unions = [n / 3, n, n / 10, 0][round];
                for _ in 0..unions {
                    let (a, b) = (next(n), next(n));
                    uf.union(a, b);
                }
                let mut copy = uf.clone();
                let views = uf.cluster_views();
                assert_eq!(views, oracle_views(&mut copy), "n {n}, round {round}");
                assert_eq!(uf.clusters(), views.1);
                assert_eq!(uf.cluster_ids(), views.0);
            }
        }
    }

    /// The normalization contract itself: ids are dense, ordered by each
    /// cluster's smallest member, and members are listed ascending.
    #[test]
    fn cluster_views_are_normalized() {
        let mut uf = UnionFind::new(10);
        uf.union(7, 2);
        uf.union(9, 4);
        uf.union(4, 2);
        let clusters = uf.clusters();
        for c in &clusters {
            assert!(c.windows(2).all(|w| w[0] < w[1]), "members ascending");
        }
        let firsts: Vec<usize> = clusters.iter().map(|c| c[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "ordered by min");
        let ids = uf.cluster_ids();
        let max = *ids.iter().max().unwrap();
        for id in 0..=max {
            assert!(ids.contains(&id), "ids dense: missing {id}");
        }
    }
}
