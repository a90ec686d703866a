//! Reverse Cuthill–McKee reordering.
//!
//! The paper observes (§4.3) that matrices whose mass sits far from the
//! diagonal — `Chem97ZtZ`, `Trefethen` — gain little from local iterations
//! because the diagonal blocks are (nearly) diagonal, and suggests that "an
//! improvement for this case could potentially be obtained by reordering."
//! RCM concentrates entries near the diagonal, which increases the fraction
//! of `nnz` captured by the diagonal blocks of a row partition; the ablation
//! experiment `repro ablation` quantifies this.

use crate::{CsrMatrix, RowPartition};
use std::collections::VecDeque;

/// Computes a reverse Cuthill–McKee ordering of a symmetric-pattern matrix.
///
/// The returned vector is a *new-to-old* map: row `i` of the reordered
/// matrix is row `perm[i]` of the original, suitable for
/// [`CsrMatrix::permute_sym`]. Disconnected components are each ordered
/// from a minimum-degree start node.
pub fn reverse_cuthill_mckee(a: &CsrMatrix) -> Vec<usize> {
    let n = a.n_rows();
    let degree = |v: usize| -> usize { a.row(v).0.len() };
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();

    // Process components from nodes of increasing degree.
    let mut nodes: Vec<usize> = (0..n).collect();
    nodes.sort_by_key(|&v| degree(v));

    for &start in &nodes {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = a
                .row(v)
                .0
                .iter()
                .copied()
                .filter(|&u| u != v && !visited[u])
                .collect();
            nbrs.sort_by_key(|&u| degree(u));
            for u in nbrs {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Bandwidth of a matrix: `max |i - j|` over stored entries.
pub fn bandwidth(a: &CsrMatrix) -> usize {
    let mut bw = 0;
    for r in 0..a.n_rows() {
        for (c, _) in a.row_iter(r) {
            bw = bw.max(r.abs_diff(c));
        }
    }
    bw
}

/// Fraction of the matrix's entry magnitude captured inside the diagonal
/// blocks of `partition`: `sum |a_ij| over (i,j) in same block / sum |a_ij|`.
///
/// This is the quantity that governs how much the async-(k) local sweeps
/// help (paper §4.3): close to 1 for `fv*`, close to the diagonal fraction
/// for `Chem97ZtZ`.
pub fn block_diagonal_mass(a: &CsrMatrix, partition: &RowPartition) -> f64 {
    let mut inside = 0.0;
    let mut total = 0.0;
    for r in 0..a.n_rows() {
        let b = partition.block(partition.block_of(r));
        for (c, v) in a.row_iter(r) {
            total += v.abs();
            if b.contains(c) {
                inside += v.abs();
            }
        }
    }
    if total == 0.0 {
        0.0
    } else {
        inside / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn path_graph_shuffled(n: usize) -> CsrMatrix {
        // A path graph 0-1-2-...-n-1 but with node labels reversed in an
        // interleaved way to create large bandwidth.
        let relabel = |i: usize| -> usize {
            if i.is_multiple_of(2) {
                i / 2
            } else {
                n - 1 - i / 2
            }
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(relabel(i), relabel(i), 2.0).unwrap();
            if i + 1 < n {
                coo.push_sym(relabel(i), relabel(i + 1), -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn rcm_is_a_permutation() {
        let a = path_graph_shuffled(37);
        let p = reverse_cuthill_mckee(&a);
        let mut seen = [false; 37];
        for &v in &p {
            assert!(!seen[v]);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        let a = path_graph_shuffled(64);
        let before = bandwidth(&a);
        let p = reverse_cuthill_mckee(&a);
        let reordered = a.permute_sym(&p).unwrap();
        let after = bandwidth(&reordered);
        assert!(after < before, "bandwidth {before} -> {after}");
        assert_eq!(after, 1, "a path graph has an ordering with bandwidth 1");
    }

    #[test]
    fn rcm_handles_disconnected_graph() {
        // two disjoint edges + an isolated vertex
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push_sym(0, 3, -1.0).unwrap();
        coo.push_sym(1, 4, -1.0).unwrap();
        let a = coo.to_csr();
        let p = reverse_cuthill_mckee(&a);
        assert_eq!(p.len(), 5);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn block_mass_tridiagonal() {
        // Tridiagonal matrix, blocks of 4: only the couplings across block
        // boundaries are outside.
        let n = 16;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let p = RowPartition::uniform(n, 4).unwrap();
        let inside = block_diagonal_mass(&a, &p);
        // total mass = 16*2 + 30*1 = 62; outside = 2 entries per internal
        // boundary * 3 boundaries = 6. inside = 56/62.
        assert!((inside - 56.0 / 62.0).abs() < 1e-12, "{inside}");
    }

    #[test]
    fn block_mass_diagonal_matrix_is_one() {
        let a = CsrMatrix::from_diagonal(&[1.0; 8]);
        let p = RowPartition::uniform(8, 3).unwrap();
        assert_eq!(block_diagonal_mass(&a, &p), 1.0);
    }
}
