//! The dynamic control-flow graph and its coverage pruning.

use std::collections::BTreeMap;

use specmt_isa::Pc;

use crate::{BasicBlocks, BlockId, BlockStream};

/// A node of the [`DynCfg`]: one basic block with its profile weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfgNode {
    /// First instruction of the block.
    pub start: Pc,
    /// Static instruction count.
    pub static_len: u32,
    /// Dynamic executions of the block.
    pub occurrences: u64,
    /// Total dynamic instructions contributed by the block.
    pub instructions: u64,
    /// Whether the block has been pruned away (see
    /// [`DynCfg::prune_to_coverage`]).
    pub pruned: bool,
}

impl CfgNode {
    /// Average instructions executed per occurrence.
    pub fn avg_len(&self) -> f64 {
        if self.occurrences == 0 {
            0.0
        } else {
            self.instructions as f64 / self.occurrences as f64
        }
    }
}

/// A weighted edge of the [`DynCfg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfgEdge {
    /// Traversal count. Integral when built from a profile; may become
    /// fractional after pruning splits weights proportionally across spliced
    /// edges.
    pub weight: f64,
    /// Expected instructions executed *inside* the edge per traversal:
    /// instructions of pruned blocks the edge now elides. Zero for profile
    /// edges.
    pub latent: f64,
}

/// Summary returned by [`DynCfg::prune_to_coverage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneSummary {
    /// Blocks kept.
    pub kept: usize,
    /// Blocks pruned.
    pub pruned: usize,
    /// Fraction of dynamic instructions covered by the kept blocks.
    pub coverage: f64,
}

/// The dynamic control-flow graph of §3.1: basic blocks as nodes, edges
/// weighted with observed transition frequencies.
///
/// Supports the paper's size reduction: blocks are ranked by executed
/// instructions and kept from hottest to coldest until a target coverage
/// (90 % in the paper) is reached; every pruned node is *spliced out* —
/// each predecessor edge is redistributed across the node's successors with
/// weight split proportional to the successor frequencies. Spliced edges
/// remember the expected number of instructions they now elide (the
/// [`CfgEdge::latent`] field), so expected spawn-to-CQIP distances remain
/// measurable on the pruned graph.
///
/// # Examples
///
/// ```
/// use specmt_isa::{ProgramBuilder, Reg};
/// use specmt_trace::Trace;
/// use specmt_analysis::{BasicBlocks, BlockStream, DynCfg};
///
/// let mut b = ProgramBuilder::new();
/// let top = b.fresh_label("top");
/// b.li(Reg::R1, 0);
/// b.li(Reg::R2, 100);
/// b.bind(top);
/// b.addi(Reg::R1, Reg::R1, 1);
/// b.blt(Reg::R1, Reg::R2, top);
/// b.halt();
/// let program = b.build()?;
/// let bbs = BasicBlocks::of(&program);
/// let trace = Trace::generate(program, 100_000)?;
/// let stream = BlockStream::new(&trace, &bbs);
///
/// let mut cfg = DynCfg::build(&stream, &bbs);
/// let summary = cfg.prune_to_coverage(0.9);
/// assert!(summary.coverage >= 0.9);
/// // The loop body (the hot block) survives.
/// assert!(!cfg.node(1).pruned);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynCfg {
    nodes: Vec<CfgNode>,
    edges: BTreeMap<(BlockId, BlockId), CfgEdge>,
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
}

impl DynCfg {
    /// Builds the graph from a block stream and its decomposition, taking
    /// block totals and transition edges in one walk over the stream.
    pub fn build(stream: &BlockStream, bbs: &BasicBlocks) -> DynCfg {
        let n = bbs.num_blocks();
        let mut totals = vec![(0u64, 0u64); n];
        let mut cfg = DynCfg {
            nodes: Vec::new(),
            edges: BTreeMap::new(),
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        };
        let mut prev: Option<BlockId> = None;
        for e in stream.events() {
            let t = &mut totals[e.block as usize];
            t.0 += 1;
            t.1 += u64::from(e.len);
            if let Some(from) = prev {
                cfg.add_weight(from, e.block, 1.0, 0.0);
            }
            prev = Some(e.block);
        }
        cfg.nodes = totals
            .iter()
            .enumerate()
            .map(|(i, &(occurrences, instructions))| CfgNode {
                start: bbs.start(i as BlockId),
                static_len: bbs.len_of(i as BlockId),
                occurrences,
                instructions,
                pruned: false,
            })
            .collect();
        cfg
    }

    fn add_weight(&mut self, from: BlockId, to: BlockId, weight: f64, latent: f64) {
        use std::collections::btree_map::Entry;
        match self.edges.entry((from, to)) {
            Entry::Vacant(e) => {
                e.insert(CfgEdge { weight, latent });
                self.succs[from as usize].push(to);
                self.preds[to as usize].push(from);
            }
            Entry::Occupied(mut e) => {
                let edge = e.get_mut();
                let total = edge.weight + weight;
                if total > 0.0 {
                    edge.latent = (edge.latent * edge.weight + latent * weight) / total;
                }
                edge.weight = total;
            }
        }
    }

    fn remove_edge(&mut self, from: BlockId, to: BlockId) {
        if self.edges.remove(&(from, to)).is_some() {
            self.succs[from as usize].retain(|&s| s != to);
            self.preds[to as usize].retain(|&p| p != from);
        }
    }

    /// Number of nodes (kept and pruned).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node for block `id`.
    pub fn node(&self, id: BlockId) -> &CfgNode {
        &self.nodes[id as usize]
    }

    /// All nodes, indexed by block id.
    pub fn nodes(&self) -> &[CfgNode] {
        &self.nodes
    }

    /// The edge `from -> to`, if present.
    pub fn edge(&self, from: BlockId, to: BlockId) -> Option<&CfgEdge> {
        self.edges.get(&(from, to))
    }

    /// Successors of `id` with their edges.
    pub fn out_edges(&self, id: BlockId) -> impl Iterator<Item = (BlockId, &CfgEdge)> + '_ {
        self.succs[id as usize]
            .iter()
            .map(move |&s| (s, &self.edges[&(id, s)]))
    }

    /// Total outgoing weight of `id`.
    pub fn out_weight(&self, id: BlockId) -> f64 {
        self.out_edges(id).map(|(_, e)| e.weight).sum()
    }

    /// Ids of the blocks that survived pruning (all blocks if never pruned).
    pub fn kept_blocks(&self) -> Vec<BlockId> {
        (0..self.nodes.len() as BlockId)
            .filter(|&i| !self.nodes[i as usize].pruned)
            .collect()
    }

    /// Prunes the graph to the hottest blocks covering at least `coverage`
    /// (a fraction in `0..=1`) of the executed instructions, splicing edges
    /// around every pruned node.
    ///
    /// Splicing a node `v` redistributes each predecessor edge `p -> v`
    /// across `v`'s non-self successors `s` with weight
    /// `w(p,v) * w(v,s) / Σ w(v,·)`, exactly the paper's proportional
    /// split. Self-loops on `v` are folded into the expected number of
    /// instructions the new edges elide (a geometric expected repeat
    /// count), so distances stay calibrated.
    ///
    /// Blocks that never executed are always pruned. Returns a summary.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is not within `0.0..=1.0`.
    pub fn prune_to_coverage(&mut self, coverage: f64) -> PruneSummary {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be within 0..=1"
        );
        let total: u64 = self.nodes.iter().map(|n| n.instructions).sum();
        let mut order: Vec<BlockId> = (0..self.nodes.len() as BlockId).collect();
        order.sort_by(|&a, &b| {
            self.nodes[b as usize]
                .instructions
                .cmp(&self.nodes[a as usize].instructions)
                .then(a.cmp(&b))
        });
        let mut kept = Vec::new();
        let mut covered = 0u64;
        let target = (coverage * total as f64).ceil() as u64;
        for &id in &order {
            if covered >= target || self.nodes[id as usize].instructions == 0 {
                break;
            }
            covered += self.nodes[id as usize].instructions;
            kept.push(id);
        }
        // Prune coldest-first so splices cascade toward hotter nodes.
        let keep_set: Vec<bool> = {
            let mut v = vec![false; self.nodes.len()];
            for &id in &kept {
                v[id as usize] = true;
            }
            v
        };
        for &id in order.iter().rev() {
            if !keep_set[id as usize] {
                self.splice_out(id);
            }
        }
        PruneSummary {
            kept: kept.len(),
            pruned: self.nodes.len() - kept.len(),
            coverage: if total == 0 {
                1.0
            } else {
                covered as f64 / total as f64
            },
        }
    }

    /// Removes node `v`, splicing predecessor edges onto successors.
    fn splice_out(&mut self, v: BlockId) {
        let vi = v as usize;
        self.nodes[vi].pruned = true;

        let self_edge = self.edges.get(&(v, v)).copied();
        let outs: Vec<(BlockId, CfgEdge)> = self.succs[vi]
            .iter()
            .filter(|&&s| s != v)
            .map(|&s| (s, self.edges[&(v, s)]))
            .collect();
        let ins: Vec<(BlockId, CfgEdge)> = self.preds[vi]
            .iter()
            .filter(|&&p| p != v)
            .map(|&p| (p, self.edges[&(p, v)]))
            .collect();

        let self_w = self_edge.map_or(0.0, |e| e.weight);
        let out_w: f64 = outs.iter().map(|(_, e)| e.weight).sum();
        let total_out = self_w + out_w;

        // Expected instructions spent inside v per pass-through, accounting
        // for self-loop repeats: rho visits of v, rho-1 self traversals.
        let inside = if total_out > 0.0 && out_w > 0.0 {
            let q = self_w / total_out;
            let rho = 1.0 / (1.0 - q);
            rho * self.nodes[vi].avg_len() + (rho - 1.0) * self_edge.map_or(0.0, |e| e.latent)
        } else {
            self.nodes[vi].avg_len()
        };

        // Drop all edges touching v before inserting spliced ones (a
        // predecessor may also be a successor).
        let touching: Vec<(BlockId, BlockId)> = self
            .edges
            .keys()
            .copied()
            .filter(|&(a, b)| a == v || b == v)
            .collect();
        for (a, b) in touching {
            self.remove_edge(a, b);
        }

        if out_w <= 0.0 {
            // v was a sink (or pure self-loop): its incoming mass dies with
            // it, modelling absorption (program exit through cold code).
            return;
        }
        for (p, pe) in &ins {
            for (s, se) in &outs {
                let w = pe.weight * (se.weight / out_w);
                if w > 0.0 {
                    let latent = pe.latent + inside + se.latent;
                    self.add_weight(*p, *s, w, latent);
                }
            }
        }
    }

    /// Checks weight conservation: for every kept node, outgoing weight must
    /// not exceed its occurrence count by more than `tol` (mass can only be
    /// *lost* to pruned sinks, never created).
    ///
    /// Intended for tests and debug assertions.
    pub fn check_weight_sanity(&self, tol: f64) -> bool {
        self.kept_blocks().iter().all(|&id| {
            let out = self.out_weight(id);
            out <= self.nodes[id as usize].occurrences as f64 + tol
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{ProgramBuilder, Reg};
    use specmt_trace::Trace;

    /// entry -> loop{body -> [cold | hot] -> latch} -> exit
    fn branchy_loop() -> (DynCfg, BasicBlocks) {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        let cold = b.fresh_label("cold");
        let latch = b.fresh_label("latch");
        b.li(Reg::R1, 0); // block: entry
        b.li(Reg::R2, 64);
        b.bind(top); // block: body head
        b.andi(Reg::R3, Reg::R1, 15);
        b.beq(Reg::R3, Reg::ZERO, cold); // taken 1/16 of iterations
        b.addi(Reg::R4, Reg::R4, 1); // block: hot path
        b.j(latch);
        b.bind(cold);
        b.addi(Reg::R5, Reg::R5, 1); // block: cold path
        b.bind(latch);
        b.addi(Reg::R1, Reg::R1, 1); // block: latch
        b.blt(Reg::R1, Reg::R2, top);
        b.halt(); // block: exit
        let program = b.build().unwrap();
        let bbs = BasicBlocks::of(&program);
        let trace = Trace::generate(program, 100_000).unwrap();
        let stream = BlockStream::new(&trace, &bbs);
        (DynCfg::build(&stream, &bbs), bbs)
    }

    #[test]
    fn edge_weights_match_execution_frequencies() {
        let (cfg, bbs) = branchy_loop();
        // Find the body-head block: the one starting at the `top` label (@2).
        let head = bbs.block_of(specmt_isa::Pc(2));
        // 64 iterations: 4 go cold (i % 16 == 0), 60 go hot.
        let outs: Vec<(BlockId, f64)> = cfg.out_edges(head).map(|(s, e)| (s, e.weight)).collect();
        let total: f64 = outs.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 64.0);
        let mut weights: Vec<f64> = outs.iter().map(|(_, w)| *w).collect();
        weights.sort_by(f64::total_cmp);
        assert_eq!(weights, vec![4.0, 60.0]);
    }

    #[test]
    fn pruning_keeps_hot_blocks_and_conserves_weight() {
        let (mut cfg, bbs) = branchy_loop();
        let summary = cfg.prune_to_coverage(0.9);
        assert!(summary.coverage >= 0.9);
        assert!(summary.pruned >= 1);
        assert!(cfg.check_weight_sanity(1e-6));
        // The cold path block (entered 4 times out of 64) should be pruned.
        let cold_block = bbs.block_of(specmt_isa::Pc(6));
        assert!(cfg.node(cold_block).pruned);
        // No surviving edge touches a pruned node.
        for &id in &cfg.kept_blocks() {
            for (s, _) in cfg.out_edges(id) {
                assert!(!cfg.node(s).pruned);
            }
        }
    }

    #[test]
    fn spliced_edges_carry_latent_instructions() {
        let (mut cfg, bbs) = branchy_loop();
        cfg.prune_to_coverage(0.9);
        let head = bbs.block_of(specmt_isa::Pc(2));
        let latch = bbs.block_of(specmt_isa::Pc(7));
        // The head -> latch path through the pruned cold block must exist
        // with latent instructions ≈ the cold block's length (1).
        let spliced = cfg.edge(head, latch).expect("spliced edge exists");
        assert!(spliced.latent > 0.0);
        assert!((spliced.latent - 1.0).abs() < 1e-9);
        // Its weight is the cold traversal count.
        assert!((spliced.weight - 4.0).abs() < 1e-9);
    }

    #[test]
    fn full_coverage_prunes_only_dead_blocks() {
        let (mut cfg, _) = branchy_loop();
        let summary = cfg.prune_to_coverage(1.0);
        assert!((summary.coverage - 1.0).abs() < 1e-12);
        for n in cfg.nodes() {
            assert_eq!(n.pruned, n.instructions == 0);
        }
    }

    #[test]
    #[should_panic(expected = "within 0..=1")]
    fn invalid_coverage_panics() {
        let (mut cfg, _) = branchy_loop();
        cfg.prune_to_coverage(1.5);
    }

    #[test]
    fn chained_pruning_accumulates_latents() {
        // A -> B -> C -> D straight line executed once; prune B and C.
        let mut b = ProgramBuilder::new();
        let lb = b.fresh_label("b");
        let lc = b.fresh_label("c");
        let ld = b.fresh_label("d");
        b.li(Reg::R1, 1); // A: 2 insts
        b.j(lb);
        b.bind(lb);
        b.li(Reg::R2, 2); // B: 2 insts
        b.j(lc);
        b.bind(lc);
        b.li(Reg::R3, 3); // C: 2 insts
        b.j(ld);
        b.bind(ld);
        b.halt(); // D: 1 inst
        let program = b.build().unwrap();
        let bbs = BasicBlocks::of(&program);
        let trace = Trace::generate(program, 100).unwrap();
        let stream = BlockStream::new(&trace, &bbs);
        let mut cfg = DynCfg::build(&stream, &bbs);
        // Manually splice out B (block 1) and C (block 2).
        cfg.splice_out(1);
        cfg.splice_out(2);
        let edge = cfg.edge(0, 3).expect("A -> D after splicing");
        assert!((edge.weight - 1.0).abs() < 1e-12);
        assert!((edge.latent - 4.0).abs() < 1e-12); // B and C: 2 + 2 elided
    }
}
