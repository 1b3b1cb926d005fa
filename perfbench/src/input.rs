//! Seeded inputs. Everything the program receives — the graph's edge
//! list, BFS roots, the served job order — derives from the workload seed
//! given on the command line; the program sees only the generated inputs.

use pgxd_graph::generate::RmatParams;
use pgxd_graph::{Graph, GraphBuilder, NodeId};

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of `seed`, independent of the
    /// other streams.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Input streams of one workload seed.
pub const STREAM_GRAPH: u64 = 1;
pub const STREAM_ROOTS: u64 = 2;
pub const STREAM_ORDER: u64 = 3;

/// The edge list of a skewed RMAT graph with `2^scale` nodes and
/// `edge_factor · 2^scale` directed edges — the TWT stand-in of the
/// repository's dataset catalog (Graph500 quadrant probabilities with
/// per-level noise), drawn from this benchmark's own generator.
pub fn rmat_edges(scale: u32, edge_factor: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let p = RmatParams::skewed();
    let mut rng = Rng::stream(seed, STREAM_GRAPH);
    let m = (1usize << scale) * edge_factor;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut src, mut dst) = (0u32, 0u32);
        for _ in 0..scale {
            let mut jitter = |x: f64| (x * (1.0 + p.noise * (rng.unit() - 0.5))).max(0.0);
            let a = jitter(p.a);
            let b = jitter(p.b);
            let c = jitter(p.c);
            let d = jitter((1.0 - p.a - p.b - p.c).max(0.0));
            let r = rng.unit() * (a + b + c + d);
            let (sb, db) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            src = (src << 1) | sb;
            dst = (dst << 1) | db;
        }
        edges.push((src, dst));
    }
    edges
}

/// The graph layer's CSR build from an edge list (self loops dropped).
pub fn build_graph(nodes: usize, edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(nodes, edges.len()).drop_self_loops(true);
    b.set_num_nodes(nodes);
    for &(s, d) in edges {
        b.add_edge(s, d);
    }
    b.build()
}

/// `count` seeded BFS roots, each with at least the average out-degree:
/// on these skewed graphs such roots reach the giant component, so every
/// traversal does a comparable amount of work whatever the seed.
pub fn roots(g: &Graph, seed: u64, count: usize) -> Vec<NodeId> {
    let mut rng = Rng::stream(seed, STREAM_ROOTS);
    let n = g.num_nodes() as u64;
    let min_degree = (g.num_edges() / g.num_nodes().max(1)).max(1);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(n) as NodeId;
        if g.out_degree(v) >= min_degree {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(rmat_edges(8, 4, 7), rmat_edges(8, 4, 7));
        assert_ne!(rmat_edges(8, 4, 7), rmat_edges(8, 4, 8));
        let g = build_graph(256, &rmat_edges(8, 4, 7));
        assert_eq!(roots(&g, 7, 5), roots(&g, 7, 5));
        let avg = g.num_edges() / g.num_nodes();
        assert!(roots(&g, 7, 5).iter().all(|&r| g.out_degree(r) >= avg));
    }

    #[test]
    fn rmat_is_skewed_toward_low_ids() {
        let g = build_graph(1 << 10, &rmat_edges(10, 8, 1));
        let low: usize = (0..32).map(|v| g.out_degree(v)).sum();
        // 3% of the nodes hold far more than 3% of the edges.
        assert!(low * 5 > g.num_edges(), "low={low} m={}", g.num_edges());
    }
}
