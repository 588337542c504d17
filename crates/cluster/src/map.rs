//! The epoch-versioned cluster map: which node holds which replica of
//! which shard.
//!
//! Placement is the paper's Section 3 discipline lifted to cluster
//! scale: every party holding the [`ClusterConfig`] computes the same
//! map as a pure function of `(seed, weights, epoch history)` — no
//! central directory, exactly as the dictionaries themselves avoid
//! per-key directories. Shards pick their `k` replica nodes by greedy
//! least-loaded choice among `d` integer-rendezvous candidates
//! ([`loadbalance::weighted`]); Lemma 3 is what keeps the greedy
//! deviation (and therefore the per-node shard count) tight.
//!
//! Epoch transitions are **incremental repairs**, not rebuilds: when a
//! node dies, only the replicas that lived on it re-place (bounded
//! movement — the dead node's fair share, ≈ `1/N` of all replicas); a
//! rejoining node pulls back only the slots a fresh build would hand
//! it. Every transition bumps [`ClusterMap::epoch`], and the serving
//! protocol carries the epoch so stale routing is a typed error
//! ([`pdm_server::ServeError::StaleEpoch`]), never a silent misread.

use loadbalance::weighted::{choose_replicas, WeightedNode};

/// Static cluster-wide configuration. Shared verbatim by every node and
/// every router; together with the epoch history it determines the
/// entire cluster layout, including each shard's dictionary parameters
/// and block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Global shard count.
    pub shards: u32,
    /// Replicas per shard (`k`). Writes go to all trusted replicas.
    pub replication: usize,
    /// Candidate nodes considered per shard (`d ≥ k`).
    pub choices: usize,
    /// Seed of placement and of every shard's dictionary hashes.
    pub seed: u64,
    /// Capacity of each shard's dictionary.
    pub shard_capacity: usize,
    /// Key universe of each shard's dictionary.
    pub universe: u64,
    /// Satellite words per key.
    pub sigma: usize,
    /// Journal ring rows of each shard's dictionary (must be ≥ 1: the
    /// cluster tier relies on journaled re-replication).
    pub journal_rows: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 8,
            replication: 2,
            choices: 3,
            seed: 0xC10_5EED,
            shard_capacity: 1 << 12,
            universe: 1 << 21,
            sigma: 1,
            journal_rows: 2,
        }
    }
}

impl ClusterConfig {
    /// Dictionary parameters of one global shard — a pure function of
    /// the config, so any node can construct (or reopen) any shard's
    /// front without asking anyone.
    #[must_use]
    pub fn shard_params(&self, shard: u32) -> pdm_dict::DictParams {
        pdm_dict::DictParams::new(self.shard_capacity.max(4), self.universe, self.sigma)
            .with_degree(20)
            .with_epsilon(0.5)
            .with_seed(expander::mix::mix64(
                self.seed ^ (u64::from(shard) << 32) ^ 0x5AAD,
            ))
            .with_journal(self.journal_rows)
    }

    /// Words per block of every shard's array: the smallest power of two
    /// from 64 to 512 (one 4 KiB page, `FileBackend`'s O_DIRECT alignment)
    /// at which a shard stores its records in their membership slots
    /// ([`pdm_dict::DynamicDict::records_inline`]); 64, with the records
    /// chained, when no such block exists. Derived, never set: like the
    /// layout itself, it follows from (σ, N) alone.
    #[must_use]
    pub fn block_words(&self) -> usize {
        let params = self.shard_params(0);
        [64, 128, 256, 512]
            .into_iter()
            .find(|&b| pdm_dict::DynamicDict::records_inline(&params, b))
            .unwrap_or(64)
    }

    /// The global shard owning `key` (the same mix-based route the
    /// serving engine uses within a node).
    #[must_use]
    pub fn shard_of(&self, key: u64) -> u32 {
        (expander::mix::mix64(self.seed ^ key) % u64::from(self.shards)) as u32
    }
}

/// One node as the map tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeState {
    /// Capacity weight (≥ 1).
    pub weight: u32,
    /// Whether the map currently trusts the node with replicas.
    pub up: bool,
}

/// One replica relocation produced by an epoch transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// The shard whose replica moves.
    pub shard: u32,
    /// The node losing the replica.
    pub from: usize,
    /// The node gaining it (must be re-replicated before serving).
    pub to: usize,
}

/// The outcome of an epoch transition: the new epoch and the bounded
/// set of replica moves that realize it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapDelta {
    /// The epoch after the transition.
    pub epoch: u64,
    /// Every replica relocation. Shards not listed did not move.
    pub moves: Vec<ShardMove>,
}

impl MapDelta {
    /// Moved replicas as a fraction of all replicas — the quantity the
    /// Lemma 3 movement gate bounds by `1/N + slack`.
    #[must_use]
    pub fn movement_fraction(&self, shards: u32, k: usize) -> f64 {
        self.moves.len() as f64 / (f64::from(shards) * k as f64)
    }
}

/// The shard → replica-nodes map at one epoch.
#[derive(Debug, Clone)]
pub struct ClusterMap {
    cfg: ClusterConfig,
    epoch: u64,
    nodes: Vec<NodeState>,
    /// `replicas[shard]` = replica node indices; `[0]` is the primary.
    replicas: Vec<Vec<usize>>,
}

impl ClusterMap {
    /// Build the epoch-0 map for `weights.len()` nodes, all up.
    ///
    /// # Panics
    /// Panics if fewer than `k` nodes exist, `k > d`, or a weight is 0.
    #[must_use]
    pub fn build(cfg: ClusterConfig, weights: &[u32]) -> Self {
        assert!(
            weights.len() >= cfg.replication,
            "{} nodes cannot hold {} replicas",
            weights.len(),
            cfg.replication
        );
        let nodes: Vec<NodeState> = weights
            .iter()
            .map(|&w| {
                assert!(w >= 1, "node weight must be at least 1");
                NodeState { weight: w, up: true }
            })
            .collect();
        let mut map = ClusterMap {
            cfg,
            epoch: 0,
            nodes,
            replicas: Vec::new(),
        };
        map.replicas = map.fresh_placement();
        map
    }

    /// The placement a from-scratch build over the *up* nodes yields.
    fn fresh_placement(&self) -> Vec<Vec<usize>> {
        let wnodes = self.weighted_nodes();
        let eligible: Vec<bool> = self.nodes.iter().map(|n| n.up).collect();
        let mut loads = vec![0u64; self.nodes.len()];
        (0..self.cfg.shards)
            .map(|s| {
                choose_replicas(
                    self.cfg.seed,
                    u64::from(s),
                    &wnodes,
                    &eligible,
                    &mut loads,
                    self.cfg.replication,
                    self.cfg.choices,
                )
                .unwrap_or_else(|| {
                    panic!(
                        "shard {s}: fewer than {} up nodes among top {}",
                        self.cfg.replication, self.cfg.choices
                    )
                })
            })
            .collect()
    }

    fn weighted_nodes(&self) -> Vec<WeightedNode> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| WeightedNode::new(i as u64, n.weight))
            .collect()
    }

    /// Current replica loads (replica count per node) over the live map.
    fn replica_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.nodes.len()];
        for replicas in &self.replicas {
            for &n in replicas {
                loads[n] += 1;
            }
        }
        loads
    }

    /// The map's epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The config the map was built from.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Node states.
    #[must_use]
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// The ordered replicas of `shard` (primary first).
    #[must_use]
    pub fn replicas(&self, shard: u32) -> &[usize] {
        &self.replicas[shard as usize]
    }

    /// The primary node of `shard` (reads go here first).
    #[must_use]
    pub fn primary(&self, shard: u32) -> usize {
        self.replicas[shard as usize][0]
    }

    /// All shards with a replica on `node`.
    #[must_use]
    pub fn shards_on(&self, node: usize) -> Vec<u32> {
        (0..self.cfg.shards)
            .filter(|&s| self.replicas[s as usize].contains(&node))
            .collect()
    }

    /// Declare `node` dead: epoch bumps, and **only** the replicas that
    /// lived on it re-place — each onto the least-loaded of the shard's
    /// remaining rendezvous candidates. Replicas elsewhere do not move,
    /// so movement is exactly the dead node's replica count (its fair
    /// share, ≈ `1/N` of all replicas by the Lemma 3 balance).
    ///
    /// Every moved shard's new replica holds no data yet: the caller
    /// must re-replicate (see the router) before the epoch's map is
    /// fully redundant. Surviving replicas are promoted ahead of the
    /// new one, so reads stay exact meanwhile.
    ///
    /// # Panics
    /// Panics if the death leaves some shard with fewer than `k` up
    /// candidate nodes.
    pub fn mark_down(&mut self, node: usize) -> MapDelta {
        assert!(self.nodes[node].up, "node {node} is already down");
        self.nodes[node].up = false;
        self.epoch += 1;
        let wnodes = self.weighted_nodes();
        let mut loads = self.replica_loads();
        loads[node] = 0; // the dead node's replicas are gone
        let mut moves = Vec::new();
        for s in 0..self.cfg.shards {
            let replicas = &mut self.replicas[s as usize];
            let Some(pos) = replicas.iter().position(|&n| n == node) else {
                continue;
            };
            replicas.remove(pos);
            // Eligible: up nodes not already replicating this shard.
            let mut eligible: Vec<bool> = self.nodes.iter().map(|n| n.up).collect();
            for &r in replicas.iter() {
                eligible[r] = false;
            }
            let replacement = choose_replicas(
                self.cfg.seed,
                u64::from(s),
                &wnodes,
                &eligible,
                &mut loads,
                1,
                self.cfg.choices.max(self.nodes.len()),
            )
            .unwrap_or_else(|| {
                panic!(
                    "shard {s}: no up node left to re-place the replica lost with node {node}"
                )
            })[0];
            // Appended last: survivors stay ahead, so the primary always
            // has the data until re-replication completes.
            replicas.push(replacement);
            moves.push(ShardMove {
                shard: s,
                from: node,
                to: replacement,
            });
        }
        MapDelta {
            epoch: self.epoch,
            moves,
        }
    }

    /// Bring `node` back (after a restart, with **empty** disks): epoch
    /// bumps, and the node receives only the replica slots a fresh
    /// build over the now-up node set would hand it — each taken from
    /// the currently most-loaded replica of that shard. Movement is
    /// again the node's fair share.
    ///
    /// As with [`mark_down`](Self::mark_down), every move needs
    /// re-replication before the new replica serves; it is appended
    /// last so data-holding survivors stay ahead of it.
    pub fn mark_up(&mut self, node: usize) -> MapDelta {
        assert!(!self.nodes[node].up, "node {node} is already up");
        self.nodes[node].up = true;
        self.epoch += 1;
        let fresh = self.fresh_placement();
        let mut loads = self.replica_loads();
        let mut moves = Vec::new();
        for s in 0..self.cfg.shards {
            let wants = fresh[s as usize].contains(&node);
            let has = self.replicas[s as usize].contains(&node);
            if !wants || has {
                continue;
            }
            let replicas = &mut self.replicas[s as usize];
            // Relieve the replica with the most load per unit weight
            // (ties: last in failover order, so primaries move last).
            let victim_pos = (0..replicas.len())
                .max_by(|&a, &b| {
                    let (ra, rb) = (replicas[a], replicas[b]);
                    let wa = u128::from(self.nodes[ra].weight);
                    let wb = u128::from(self.nodes[rb].weight);
                    (u128::from(loads[ra]) * wb, a).cmp(&(u128::from(loads[rb]) * wa, b))
                })
                .expect("k >= 1");
            let victim = replicas.remove(victim_pos);
            loads[victim] -= 1;
            loads[node] += 1;
            replicas.push(node);
            moves.push(ShardMove {
                shard: s,
                from: victim,
                to: node,
            });
        }
        MapDelta {
            epoch: self.epoch,
            moves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: u32, k: usize, d: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            replication: k,
            choices: d,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn build_is_deterministic_and_balanced() {
        let c = cfg(32, 2, 3);
        let a = ClusterMap::build(c, &[1, 1, 1, 1]);
        let b = ClusterMap::build(c, &[1, 1, 1, 1]);
        assert_eq!(a.replicas, b.replicas);
        assert_eq!(a.epoch(), 0);
        let loads = a.replica_loads();
        let total: u64 = loads.iter().sum();
        assert_eq!(total, 64);
        for &l in &loads {
            assert!((12..=20).contains(&l), "unbalanced: {loads:?}");
        }
        for s in 0..32 {
            let r = a.replicas(s);
            assert_eq!(r.len(), 2);
            assert_ne!(r[0], r[1]);
        }
    }

    #[test]
    fn mark_down_moves_only_the_dead_nodes_replicas() {
        let c = cfg(64, 2, 3);
        let mut m = ClusterMap::build(c, &[1, 1, 1, 1]);
        let before = m.replicas.clone();
        let dead_shards = m.shards_on(2);
        let delta = m.mark_down(2);
        assert_eq!(m.epoch(), 1);
        assert_eq!(delta.epoch, 1);
        assert_eq!(delta.moves.len(), dead_shards.len());
        for mv in &delta.moves {
            assert_eq!(mv.from, 2);
            assert_ne!(mv.to, 2);
        }
        // Untouched shards kept their exact replica lists.
        for s in 0..64u32 {
            if !dead_shards.contains(&s) {
                assert_eq!(m.replicas(s), &before[s as usize][..], "shard {s} moved");
            } else {
                assert!(!m.replicas(s).contains(&2));
                assert_eq!(m.replicas(s).len(), 2);
                // The survivor (data holder) is the primary.
                assert!(before[s as usize].contains(&m.primary(s)));
            }
        }
        // Movement bound: the dead node's fair share plus slack.
        let frac = delta.movement_fraction(64, 2);
        assert!(frac <= 1.0 / 4.0 + 0.10, "movement fraction {frac}");
    }

    #[test]
    fn mark_up_returns_only_the_fair_share() {
        let c = cfg(64, 2, 3);
        let mut m = ClusterMap::build(c, &[1, 1, 1, 1]);
        let _ = m.mark_down(1);
        let delta = m.mark_up(1);
        assert_eq!(m.epoch(), 2);
        for mv in &delta.moves {
            assert_eq!(mv.to, 1);
            assert!(m.replicas(mv.shard).contains(&1));
        }
        let frac = delta.movement_fraction(64, 2);
        assert!(frac <= 1.0 / 4.0 + 0.10, "movement fraction {frac}");
        // The node ends near its fair share of replicas.
        let loads = m.replica_loads();
        assert!(
            (20..=45).contains(&loads[1]),
            "rejoined node load {loads:?}"
        );
    }

    #[test]
    fn shard_of_covers_all_shards() {
        let c = cfg(8, 2, 3);
        let mut seen = [false; 8];
        for key in 0..1000u64 {
            seen[c.shard_of(key) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shard_params_differ_by_shard_and_share_geometry() {
        let c = ClusterConfig::default();
        let a = c.shard_params(0);
        let b = c.shard_params(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.journal_rows, c.journal_rows);
    }

    #[test]
    fn every_one_word_config_derives_64_word_blocks() {
        // The default, and every capacity a suite, example or drill bin
        // gives a σ = 1 cluster: 21 slots of 3 words at most.
        assert_eq!(ClusterConfig::default().block_words(), 64);
        for shard_capacity in [64, 128, 256, 512, 1024] {
            assert_eq!(ClusterConfig { shard_capacity, ..ClusterConfig::default() }.block_words(), 64);
        }
    }

    /// Whether `shard` stores its records in their membership slots: a miss
    /// reads the key's `d` membership buckets and no level-1 field, and no
    /// disk `d + i` is longer than disk `i` — the upper half of the
    /// membership is at most as long as the lower one, where a Theorem 7
    /// level stacks more rows than the membership holds.
    fn stored_inline(cfg: &ClusterConfig, shard: &mut dyn pdm_dict::Dict) -> bool {
        let d = cfg.shard_params(0).degree;
        let reads = shard.lookup(0).cost.block_reads;
        let disks = shard.disks().expect("a shard owns its array");
        let halves = (d..2 * d).all(|disk| disks.blocks_on(disk) <= disks.blocks_on(disk - d));
        assert_eq!(reads == d as u64, halves, "a probe of {reads} blocks");
        halves
    }

    #[test]
    fn the_benchmark_shape_derives_128_word_blocks_and_stores_inline() {
        // σ = 2, N = 5 440: 21 slots of 4 words overflow 64, fit 128.
        let cfg = ClusterConfig { shard_capacity: 5440, sigma: 2, ..ClusterConfig::default() };
        assert_eq!(cfg.block_words(), 128);
        let mut shard = crate::node::build_shard(&cfg, 0);
        assert_eq!(shard.disks().unwrap().block_words(), 128);
        assert!(stored_inline(&cfg, shard.as_mut()));
    }

    #[test]
    fn a_record_no_block_fits_keeps_64_words_and_chains() {
        // σ = 40: 21 slots of 42 words are 882, past one 512-word page.
        let cfg = ClusterConfig { sigma: 40, ..ClusterConfig::default() };
        assert_eq!(cfg.block_words(), 64);
        let mut shard = crate::node::build_shard(&cfg, 0);
        assert_eq!(shard.disks().unwrap().block_words(), 64);
        assert!(!stored_inline(&cfg, shard.as_mut()));
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn too_few_nodes_refused() {
        let _ = ClusterMap::build(cfg(4, 3, 3), &[1, 1]);
    }
}
