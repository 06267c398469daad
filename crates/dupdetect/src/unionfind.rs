//! The one clustering function, [`cluster`]: the transitive closure over
//! duplicate pairs (paper §2.3: "the transitive closure over duplicate
//! pairs is formed to obtain clusters of objects that all represent a
//! single real-world entity"), formed by a private disjoint-set forest
//! (union-find) with path compression and union by rank. The cold
//! detector, the incremental one, [`crate::DetectionResult::recluster`]
//! and the experiment binaries all cluster through it.
//!
//! ## Determinism
//!
//! The internal *representative* of a set (what `UnionFind::find`
//! returns) depends on the order unions were applied in — union-by-rank
//! picks whichever root happens to be taller. That order varies with pair
//! scoring order, so representatives must never leak into user-visible
//! output. The cluster views are therefore **normalized**: clusters list
//! their members ascending and are ordered by their smallest member, and
//! the cluster ids number them densely in that same order. Both are
//! invariant under any permutation of the pairs (pinned by the
//! `representative_independence_*` regression tests below), which is what
//! lets the parallel detector score pairs in any partition and still
//! produce bit-identical `objectID`s.

use crate::detector::DuplicatePair;

/// The transitive closure of `accepted_pairs` over rows `0..n`, normalized:
/// every row's dense cluster id, and the clusters (singletons included),
/// each listing its rows ascending, ordered by their smallest row. The
/// same for any order of the pairs and of each pair's two rows.
pub fn cluster(n: usize, accepted_pairs: &[DuplicatePair]) -> (Vec<usize>, Vec<Vec<usize>>) {
    let mut uf = UnionFind::new(n);
    for p in accepted_pairs {
        uf.union(p.left, p.right);
    }
    uf.cluster_views()
}

/// A disjoint-set forest over `0..n`.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements.
    fn len(&self) -> usize {
        self.parent.len()
    }

    /// The representative of `x`'s set (with path compression).
    ///
    /// The representative is an implementation detail that depends on the
    /// order unions were applied — do not expose it; derive output from
    /// the normalized [`UnionFind::cluster_views`] instead.
    fn find(&mut self, x: usize) -> usize {
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
    fn union(&mut self, a: usize, b: usize) -> bool {
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

    /// Both normalized views in one walk over `0..n`: the dense cluster id
    /// of every element, and the clusters' members.
    ///
    /// Walking the elements in order meets each cluster first at its
    /// smallest member, so numbering clusters as they are met orders them
    /// by smallest member, and appending each element to its cluster lists
    /// the members ascending — no map, no sort.
    fn cluster_views(&mut self) -> (Vec<usize>, Vec<Vec<usize>>) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pairs as [`cluster`] takes them (the similarity is not read).
    fn pairs(pairs: &[(usize, usize)]) -> Vec<DuplicatePair> {
        (pairs.iter())
            .map(|&(left, right)| DuplicatePair {
                left,
                right,
                similarity: 1.0,
            })
            .collect()
    }

    #[test]
    fn singletons_initially() {
        assert_eq!(cluster(3, &[]).1, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn union_and_transitivity() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already connected transitively
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        let clusters = cluster(5, &pairs(&[(0, 1), (1, 2), (0, 2)])).1;
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3], vec![4]]);
    }

    #[test]
    fn cluster_ids_are_dense_and_ordered() {
        assert_eq!(cluster(4, &pairs(&[(2, 3)])).0, vec![0, 1, 2, 2]);
    }

    #[test]
    fn large_chain_compresses() {
        let n = 10_000;
        let chain: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let (ids, clusters) = cluster(n, &pairs(&chain));
        assert_eq!(clusters.len(), 1);
        assert!(ids.iter().all(|&id| id == 0));
    }

    #[test]
    fn empty_structure() {
        assert_eq!(cluster(0, &[]), (Vec::new(), Vec::new()));
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
        let edges: Vec<(usize, usize)> = vec![
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
        let reference = cluster(24, &pairs(&edges));
        for seed in 0..32 {
            let shuffled = pairs(&permuted(&edges, seed));
            assert_eq!(cluster(24, &shuffled), reference, "seed {seed}");
        }
        // Reversed order, and each pair flipped, too.
        let flipped: Vec<(usize, usize)> = edges.iter().rev().map(|&(a, b)| (b, a)).collect();
        assert_eq!(cluster(24, &pairs(&flipped)), reference);
        assert_eq!(reference.1[0], vec![0, 1, 2, 3]);
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

    /// The single walk against the map-and-sort oracle over random pair
    /// sets: chains, stars and singletons mixed, sizes 0–2000.
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
                let unions = [n / 3, n, n / 10, 0][round];
                let edges: Vec<(usize, usize)> = (0..unions).map(|_| (next(n), next(n))).collect();
                let mut uf = UnionFind::new(n);
                for &(a, b) in &edges {
                    uf.union(a, b);
                }
                let views = cluster(n, &pairs(&edges));
                assert_eq!(views, oracle_views(&mut uf), "n {n}, round {round}");
            }
        }
    }

    /// The normalization contract itself: ids are dense, ordered by each
    /// cluster's smallest member, and members are listed ascending.
    #[test]
    fn cluster_views_are_normalized() {
        let (ids, clusters) = cluster(10, &pairs(&[(7, 2), (9, 4), (4, 2)]));
        for c in &clusters {
            assert!(c.windows(2).all(|w| w[0] < w[1]), "members ascending");
        }
        let firsts: Vec<usize> = clusters.iter().map(|c| c[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "ordered by min");
        let max = *ids.iter().max().unwrap();
        for id in 0..=max {
            assert!(ids.contains(&id), "ids dense: missing {id}");
        }
    }
}
