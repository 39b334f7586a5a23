//! K-hop receptive-field extraction for inference serving.
//!
//! An `L`-layer GCN prediction for a query set `Q` only reads the rows
//! of the normalized adjacency reachable within `L` hops of `Q`. This
//! module computes, per layer, the exact node sets and sub-CSR blocks of
//! that field. The serving engine uses one hop of it (its snapshots hold
//! the last layer's input) and whole row bands for the load-time forward;
//! the ordering discipline is chosen for the tree's bitwise-equality
//! contract:
//!
//! * every node set is **sorted ascending and deduplicated**, so the
//!   global→local column remap is monotone;
//! * a monotone remap preserves CSR entry order within each row, and the
//!   SpMM kernels accumulate per row in ascending-entry order — so a
//!   served row of `A·X` is bit-identical to the same row computed on
//!   the full graph.
//!
//! The hot kernels live on [`KhopWorkspace`], a pooled scratch object a
//! serving worker keeps across batches:
//!
//! * **Unions are merge-based.** A layer set is the union of the (already
//!   sorted) row supports of the layer above. Instead of concatenating
//!   every support and sort+dedup-ing the pile (`O(S log S)` on `S`
//!   entries, most of them duplicates near a hub), the workspace stamps
//!   each first-seen node in an epoch-tagged visited table while
//!   filtering every support down to its *novel* suffix — the filtered
//!   segments are still sorted and now globally disjoint — then k-way
//!   merges the segments through a pooled cursor heap. Total work is
//!   `O(S + U log k)` for `U` unique nodes over `k` contributing rows,
//!   and the output is born sorted-unique.
//! * **Extraction scatters a remap table.** Instead of a
//!   `binary_search` of the column set per entry
//!   (`O(nnz · log |cols|)`), [`KhopWorkspace::extract_sub_csr`] scatters
//!   `col_set[i] → i` into an epoch-stamped global→local table once per
//!   block and remaps each entry in `O(1)`.
//!
//! Both kernels produce exactly the sets and blocks a sort+dedup /
//! binary-search implementation does — same sorted order, same `f32` bit
//! patterns — so the monotone-remap bitwise contract holds (asserted
//! against that reference in the tests below).
//!
//! Adjacency rows are pulled through the [`RowSource`] trait: an
//! in-memory [`Csr`] implements it directly, and the serving artifact
//! implements it by decoding rows in place from mmapped shard files.

use plexus_sparse::Csr;

/// A source of adjacency rows, keyed by global node id.
///
/// Implementations must append the row's column support (and matching
/// values, for [`RowSource::row_entries`]) in **ascending column
/// order** — the order a [`Csr`] stores them in.
pub trait RowSource {
    /// Number of nodes (rows) in the graph.
    fn num_nodes(&self) -> usize;

    /// Appends the column ids of row `v`'s nonzeros to `out`.
    fn row_support(&self, v: u32, out: &mut Vec<u32>);

    /// Appends the column ids and values of row `v`'s nonzeros.
    fn row_entries(&self, v: u32, cols: &mut Vec<u32>, vals: &mut Vec<f32>);
}

impl RowSource for Csr {
    fn num_nodes(&self) -> usize {
        self.rows()
    }

    fn row_support(&self, v: u32, out: &mut Vec<u32>) {
        let (cols, _) = self.row_entries(v as usize);
        out.extend_from_slice(cols);
    }

    fn row_entries(&self, v: u32, cols: &mut Vec<u32>, vals: &mut Vec<f32>) {
        let (c, v) = Csr::row_entries(self, v as usize);
        cols.extend_from_slice(c);
        vals.extend_from_slice(v);
    }
}

/// Pooled scratch state for the k-hop kernels: the epoch-stamped visited
/// and remap tables, the novel-segment buffer the merge union filters
/// into, its cursor heap, and the row-fetch scratch. A worker keeps one
/// across batches, so steady-state extraction allocates nothing beyond
/// the returned sets and blocks themselves.
///
/// Epoch stamping makes table resets `O(1)`: a slot is live only when its
/// stamp equals the current epoch, so "clearing" is bumping the epoch.
/// The tables are dense over node ids (`n` slots) and grow on first use
/// against a larger graph.
#[derive(Default)]
pub struct KhopWorkspace {
    /// Visited table for the merge union; `visited[v] == visit_epoch`
    /// means `v` is already in the set under construction.
    visited: Vec<u32>,
    visit_epoch: u32,
    /// Global→local column remap; valid where `remap_stamp[c] == remap_epoch`.
    remap: Vec<u32>,
    remap_stamp: Vec<u32>,
    remap_epoch: u32,
    /// Concatenated novel-support segments (each sorted, mutually disjoint).
    segs: Vec<u32>,
    /// End offset of each non-empty segment in `segs`.
    seg_ends: Vec<usize>,
    /// Per-segment read cursor during the k-way merge.
    cursors: Vec<usize>,
    /// Binary min-heap of `(next value, segment index)` merge heads.
    heap: Vec<(u32, u32)>,
    /// Row-fetch scratch for [`KhopWorkspace::extract_sub_csr`].
    gcols: Vec<u32>,
    gvals: Vec<f32>,
}

impl KhopWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the stamped tables to cover `n` node ids. New slots are stamp
    /// 0; live epochs start at 1, so fresh slots never read as visited.
    fn ensure(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
            self.remap.resize(n, 0);
            self.remap_stamp.resize(n, 0);
        }
    }

    fn next_visit_epoch(&mut self) -> u32 {
        if self.visit_epoch == u32::MAX {
            self.visited.fill(0);
            self.visit_epoch = 0;
        }
        self.visit_epoch += 1;
        self.visit_epoch
    }

    fn next_remap_epoch(&mut self) -> u32 {
        if self.remap_epoch == u32::MAX {
            self.remap_stamp.fill(0);
            self.remap_epoch = 0;
        }
        self.remap_epoch += 1;
        self.remap_epoch
    }

    /// Sorted-unique union of the row supports of `rows` (itself sorted):
    /// the merge-based layer-set kernel. See the module docs for the
    /// algorithm; the result is identical to sort+dedup of the
    /// concatenated supports.
    fn merge_union(&mut self, src: &impl RowSource, rows: &[u32]) -> Vec<u32> {
        let epoch = self.next_visit_epoch();
        self.segs.clear();
        self.seg_ends.clear();
        // Pass 1: fetch each row's support and filter it in place down to
        // first-seen nodes. Filtered segments stay sorted and, because the
        // visited table is stamped as we go, are globally disjoint.
        for &v in rows {
            let start = self.segs.len();
            src.row_support(v, &mut self.segs);
            let mut w = start;
            for k in start..self.segs.len() {
                let c = self.segs[k];
                if self.visited[c as usize] != epoch {
                    self.visited[c as usize] = epoch;
                    self.segs[w] = c;
                    w += 1;
                }
            }
            self.segs.truncate(w);
            if w > start {
                self.seg_ends.push(w);
            }
        }
        let k = self.seg_ends.len();
        let mut out = Vec::with_capacity(self.segs.len());
        if k == 0 {
            return out;
        }
        if k == 1 {
            out.extend_from_slice(&self.segs);
            return out;
        }
        // Pass 2: k-way merge of the disjoint sorted segments through the
        // pooled cursor heap. U log k, no post-sort, no dedup pass.
        self.cursors.clear();
        self.heap.clear();
        let mut start = 0;
        for (s, &end) in self.seg_ends.iter().enumerate() {
            self.cursors.push(start + 1);
            heap_push(&mut self.heap, (self.segs[start], s as u32));
            start = end;
        }
        while let Some((val, s)) = heap_pop(&mut self.heap) {
            out.push(val);
            let s = s as usize;
            let cur = self.cursors[s];
            if cur < self.seg_ends[s] {
                self.cursors[s] = cur + 1;
                heap_push(&mut self.heap, (self.segs[cur], s as u32));
            }
        }
        out
    }

    /// Computes the per-layer node sets of the `layers`-hop receptive
    /// field of `queries`.
    ///
    /// Returns `layers + 1` sorted, deduplicated sets: `sets[layers]` is
    /// the sorted query set (the rows of the last layer's sub-adjacency),
    /// and for `l < layers`, `sets[l]` is the union of the column supports
    /// of `sets[l + 1]` — simultaneously the columns of layer `l`'s
    /// sub-adjacency and the rows of layer `l - 1`'s. `sets[0]` is the set
    /// of input-feature rows the forward pass gathers.
    pub fn khop_node_sets(
        &mut self,
        src: &impl RowSource,
        queries: &[u32],
        layers: usize,
    ) -> Vec<Vec<u32>> {
        assert!(layers > 0, "a GCN has at least one layer");
        let n = src.num_nodes();
        let mut top: Vec<u32> = queries.to_vec();
        top.sort_unstable();
        top.dedup();
        if let Some(&max) = top.last() {
            assert!(max < n as u32, "query node {max} out of range (graph has {n} nodes)");
        }
        self.ensure(n);
        let mut sets = vec![Vec::new(); layers + 1];
        sets[layers] = top;
        for l in (0..layers).rev() {
            sets[l] = self.merge_union(src, &sets[l + 1]);
        }
        sets
    }

    /// Builds the sub-CSR with rows `row_set` and columns `col_set` (both
    /// sorted ascending), pulling each row's entries from `src`.
    ///
    /// Every column appearing in a fetched row must be present in
    /// `col_set`; with the sets produced by
    /// [`KhopWorkspace::khop_node_sets`] this holds by construction. The
    /// monotone remap keeps each row's entries in ascending local-column
    /// order, so [`Csr::from_raw`]'s invariants hold and downstream SpMM
    /// accumulation order matches the full graph.
    pub fn extract_sub_csr(
        &mut self,
        src: &impl RowSource,
        row_set: &[u32],
        col_set: &[u32],
    ) -> Csr {
        self.ensure(src.num_nodes());
        let epoch = self.next_remap_epoch();
        for (i, &c) in col_set.iter().enumerate() {
            self.remap[c as usize] = i as u32;
            self.remap_stamp[c as usize] = epoch;
        }
        let mut row_ptr = Vec::with_capacity(row_set.len() + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for &r in row_set {
            self.gcols.clear();
            self.gvals.clear();
            src.row_entries(r, &mut self.gcols, &mut self.gvals);
            for (&c, &v) in self.gcols.iter().zip(&self.gvals) {
                assert!(
                    self.remap_stamp[c as usize] == epoch,
                    "adjacency column outside the extracted k-hop column set"
                );
                col_idx.push(self.remap[c as usize]);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(row_set.len(), col_set.len(), row_ptr, col_idx, values)
    }
}

/// Push onto a binary min-heap of `(value, segment)` pairs.
fn heap_push(heap: &mut Vec<(u32, u32)>, item: (u32, u32)) {
    heap.push(item);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[parent] <= heap[i] {
            break;
        }
        heap.swap(parent, i);
        i = parent;
    }
}

/// Pop the minimum off a binary min-heap of `(value, segment)` pairs.
fn heap_pop(heap: &mut Vec<(u32, u32)>) -> Option<(u32, u32)> {
    let last = heap.len().checked_sub(1)?;
    heap.swap(0, last);
    let top = heap.pop();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut min = i;
        if l < heap.len() && heap[l] < heap[min] {
            min = l;
        }
        if r < heap.len() && heap[r] < heap[min] {
            min = r;
        }
        if min == i {
            break;
        }
        heap.swap(i, min);
        i = min;
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat_graph;

    fn test_adjacency() -> Csr {
        rmat_graph(8, 8, 42).normalized_adjacency()
    }

    #[test]
    fn khop_sets_are_sorted_unique_and_nested_by_support() {
        let a = test_adjacency();
        let sets = KhopWorkspace::new().khop_node_sets(&a, &[5, 200, 5, 17], 3);
        assert_eq!(sets.len(), 4);
        assert_eq!(sets[3], vec![5, 17, 200]);
        for l in 0..3 {
            assert!(sets[l].windows(2).all(|w| w[0] < w[1]), "layer {l} set not sorted-unique");
            // Every column referenced by the rows above appears in the set.
            for &v in &sets[l + 1] {
                let (cols, _) = a.row_entries(v as usize);
                for &c in cols {
                    assert!(sets[l].binary_search(&c).is_ok());
                }
            }
        }
    }

    #[test]
    fn extracted_block_matches_dense_gather() {
        let a = test_adjacency();
        let mut ws = KhopWorkspace::new();
        let sets = ws.khop_node_sets(&a, &[3, 99], 2);
        let sub = ws.extract_sub_csr(&a, &sets[2], &sets[1]);
        assert_eq!(sub.shape(), (sets[2].len(), sets[1].len()));
        for (lr, &gr) in sets[2].iter().enumerate() {
            let (gcols, gvals) = a.row_entries(gr as usize);
            let (lcols, lvals) = sub.row_entries(lr);
            assert_eq!(lvals, gvals, "row {gr} values must be carried over bit-exactly");
            let mapped: Vec<u32> =
                gcols.iter().map(|c| sets[1].binary_search(c).unwrap() as u32).collect();
            assert_eq!(lcols, &mapped[..]);
        }
    }

    #[test]
    fn single_query_single_layer_is_one_row() {
        let a = test_adjacency();
        let mut ws = KhopWorkspace::new();
        let sets = ws.khop_node_sets(&a, &[7], 1);
        let sub = ws.extract_sub_csr(&a, &sets[1], &sets[0]);
        assert_eq!(sub.rows(), 1);
        assert_eq!(sub.nnz(), a.row_nnz(7));
    }

    /// The reference implementations: concatenate + sort + dedup unions,
    /// per-entry binary-search remap. The pooled kernels must reproduce
    /// them exactly.
    fn khop_node_sets_reference(
        src: &impl RowSource,
        queries: &[u32],
        layers: usize,
    ) -> Vec<Vec<u32>> {
        let mut top: Vec<u32> = queries.to_vec();
        top.sort_unstable();
        top.dedup();
        let mut sets = vec![Vec::new(); layers + 1];
        sets[layers] = top;
        for l in (0..layers).rev() {
            let mut support = Vec::new();
            for &v in &sets[l + 1] {
                src.row_support(v, &mut support);
            }
            support.sort_unstable();
            support.dedup();
            sets[l] = support;
        }
        sets
    }

    fn extract_sub_csr_reference(src: &impl RowSource, row_set: &[u32], col_set: &[u32]) -> Csr {
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let (mut gcols, mut gvals) = (Vec::new(), Vec::new());
        for &r in row_set {
            gcols.clear();
            gvals.clear();
            src.row_entries(r, &mut gcols, &mut gvals);
            for (i, &c) in gcols.iter().enumerate() {
                col_idx.push(col_set.binary_search(&c).unwrap() as u32);
                values.push(gvals[i]);
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(row_set.len(), col_set.len(), row_ptr, col_idx, values)
    }

    /// One shared workspace across many differently-shaped calls: epochs
    /// and pooled buffers must never leak state between extractions.
    #[test]
    fn workspace_reuse_matches_reference_across_calls() {
        let mut ws = KhopWorkspace::new();
        for (scale, seed, layers) in [(6u32, 1u64, 1usize), (8, 42, 3), (7, 9, 2), (8, 42, 3)] {
            let a = rmat_graph(scale, 8, seed).normalized_adjacency();
            let queries: Vec<u32> = (0..9).map(|i| (i * 37) % a.rows() as u32).collect();
            let sets = ws.khop_node_sets(&a, &queries, layers);
            let expect = khop_node_sets_reference(&a, &queries, layers);
            assert_eq!(sets, expect);
            for l in 0..layers {
                let sub = ws.extract_sub_csr(&a, &sets[l + 1], &sets[l]);
                let refsub = extract_sub_csr_reference(&a, &sets[l + 1], &sets[l]);
                assert_eq!(sub.row_ptr(), refsub.row_ptr());
                assert_eq!(sub.col_idx(), refsub.col_idx());
                assert_eq!(
                    sub.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    refsub.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the extracted k-hop column set")]
    fn extraction_rejects_columns_outside_the_set() {
        let a = test_adjacency();
        let mut ws = KhopWorkspace::new();
        let sets = ws.khop_node_sets(&a, &[3], 1);
        // Drop one required column from the set: the remap must refuse.
        let mut cols = sets[0].clone();
        cols.pop();
        ws.extract_sub_csr(&a, &sets[1], &cols);
    }

    /// Dense epoch wraparound: force the visited epoch to the edge and
    /// check the table resets instead of misreading stale stamps.
    #[test]
    fn epoch_wraparound_resets_tables() {
        let a = test_adjacency();
        let mut ws = KhopWorkspace::new();
        let first = ws.khop_node_sets(&a, &[5, 17], 2);
        ws.visit_epoch = u32::MAX - 1;
        ws.remap_epoch = u32::MAX - 1;
        for _ in 0..4 {
            let sets = ws.khop_node_sets(&a, &[5, 17], 2);
            assert_eq!(sets, first);
            let sub = ws.extract_sub_csr(&a, &sets[2], &sets[1]);
            assert_eq!(sub.nnz(), extract_sub_csr_reference(&a, &sets[2], &sets[1]).nnz());
        }
    }
}
