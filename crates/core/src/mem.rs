//! The pluggable memory system.
//!
//! The paper's evaluation assumes a perfect memory system: every load
//! completes in a fixed `load_latency` and instruction fetch is free.
//! This module makes that assumption a *configuration* instead of a
//! hard-coded fact.  [`MemoryModel`] on
//! [`MachineConfig`](crate::MachineConfig) selects the timing model:
//!
//! - [`MemoryModel::Perfect`] — the paper's machine, bit-identical to
//!   the pre-refactor behavior by construction (it reads
//!   `cfg.load_latency` and touches no cache state).
//! - [`MemoryModel::FixedLatency`] — uniform load and fetch latencies
//!   without miss modeling (an uncached memory bus).
//! - [`MemoryModel::Cache`] — parameterized set-associative I$/D$
//!   models ([`CacheConfig`]) with LRU replacement and per-access
//!   hit/miss latencies.
//!
//! Every issue engine funnels loads through the same two
//! [`VliwMachine`](crate::VliwMachine) execution helpers and fetch
//! through the same cycle-driver gate, so one [`MemorySystem`] instance
//! per machine covers all engines uniformly.
//!
//! Modeling simplifications (documented, deliberate): stores retire
//! through the store buffer and do not touch the D$ (no
//! write-allocate); store-buffer-forwarded loads and faulting/latched
//! accesses bypass the D$ at hit latency; fetch brings one word at a
//! time and a word stays fetched while the front end stalls on it.

use std::fmt;

/// One parameterized set-associative cache level.
///
/// Addresses are word-granular (the guest ISA addresses words, and the
/// fetch path addresses VLIW word indices); `line_words` is the line
/// size in those units.  Replacement is LRU within a set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Number of sets (≥ 1; indexed by `line % sets`).
    pub sets: usize,
    /// Associativity (ways per set, ≥ 1).
    pub ways: usize,
    /// Line size in words (≥ 1).
    pub line_words: usize,
    /// Latency of a hit, in cycles (≥ 1; 1 = no stall on the fetch
    /// path, same-cycle semantics as the pre-refactor load pipeline).
    pub hit_latency: u64,
    /// Latency of a miss, in cycles (≥ `hit_latency`).
    pub miss_latency: u64,
}

impl CacheConfig {
    /// A small default level: 64 sets × 2 ways × 4-word lines,
    /// 1-cycle hits, 10-cycle misses.
    pub fn small() -> CacheConfig {
        CacheConfig {
            sets: 64,
            ways: 2,
            line_words: 4,
            hit_latency: 1,
            miss_latency: 10,
        }
    }

    /// Validates structural and latency parameters, with upper bounds
    /// so an untrusted config (e.g. a serve request) cannot demand an
    /// absurd allocation.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || self.sets > 65_536 {
            return Err(format!(
                "cache sets must be in 1..=65536, got {}",
                self.sets
            ));
        }
        if self.ways == 0 || self.ways > 64 {
            return Err(format!("cache ways must be in 1..=64, got {}", self.ways));
        }
        if self.line_words == 0 || self.line_words > 1024 {
            return Err(format!(
                "cache line_words must be in 1..=1024, got {}",
                self.line_words
            ));
        }
        if self.hit_latency == 0 {
            return Err("cache hit_latency must be >= 1".into());
        }
        if self.miss_latency < self.hit_latency {
            return Err(format!(
                "cache miss_latency ({}) must be >= hit_latency ({})",
                self.miss_latency, self.hit_latency
            ));
        }
        Ok(())
    }

    /// Parses the compact `SETSxWAYSxLINExHITxMISS` spec used by CLI
    /// flags and sweep grids, e.g. `64x2x4x1x10`.
    pub fn parse(s: &str) -> Result<CacheConfig, String> {
        let parts: Vec<&str> = s.split('x').collect();
        if parts.len() != 5 {
            return Err(format!(
                "cache spec must be SETSxWAYSxLINExHITxMISS (e.g. 64x2x4x1x10), got {s:?}"
            ));
        }
        let num = |part: &str, what: &str| -> Result<u64, String> {
            part.parse::<u64>()
                .map_err(|_| format!("bad cache {what} {part:?} in {s:?}"))
        };
        let cfg = CacheConfig {
            sets: num(parts[0], "sets")? as usize,
            ways: num(parts[1], "ways")? as usize,
            line_words: num(parts[2], "line_words")? as usize,
            hit_latency: num(parts[3], "hit_latency")?,
            miss_latency: num(parts[4], "miss_latency")?,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}x{}x{}",
            self.sets, self.ways, self.line_words, self.hit_latency, self.miss_latency
        )
    }
}

/// The machine's memory timing model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MemoryModel {
    /// The paper's perfect memory: loads complete in
    /// `cfg.load_latency`, fetch is free.  Bit-identical to the
    /// pre-refactor machine by construction.
    #[default]
    Perfect,
    /// Uniform latencies without miss modeling: every real load takes
    /// `load` cycles and every word fetch takes `fetch` cycles
    /// (1 = no stall).
    FixedLatency {
        /// Load-to-use latency in cycles (≥ 1).
        load: u64,
        /// Per-word fetch latency in cycles (≥ 1; 1 = free).
        fetch: u64,
    },
    /// Set-associative instruction and data caches.  `None` on a side
    /// leaves that side perfect (free fetch / `cfg.load_latency`
    /// loads), so I$-only and D$-only studies are single-axis.
    Cache {
        /// Instruction cache over VLIW word indices.
        icache: Option<CacheConfig>,
        /// Data cache over guest word addresses.
        dcache: Option<CacheConfig>,
    },
}

impl MemoryModel {
    /// Validates the model's parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            MemoryModel::Perfect => Ok(()),
            MemoryModel::FixedLatency { load, fetch } => {
                if *load == 0 {
                    return Err("fixed-latency load must be >= 1".into());
                }
                if *fetch == 0 {
                    return Err("fixed-latency fetch must be >= 1".into());
                }
                Ok(())
            }
            MemoryModel::Cache { icache, dcache } => {
                if let Some(c) = icache {
                    c.validate().map_err(|e| format!("icache: {e}"))?;
                }
                if let Some(c) = dcache {
                    c.validate().map_err(|e| format!("dcache: {e}"))?;
                }
                Ok(())
            }
        }
    }

    /// Parses the CLI spelling: `perfect`, `fixed:<load>:<fetch>`, or
    /// `cache:<icache>:<dcache>` where each side is `off` or a
    /// [`CacheConfig`] spec (`64x2x4x1x10`).  `cache` alone means a
    /// small default D$ with the I$ off.
    pub fn parse(s: &str) -> Result<MemoryModel, String> {
        if s == "perfect" {
            return Ok(MemoryModel::Perfect);
        }
        if s == "cache" {
            return Ok(MemoryModel::Cache {
                icache: None,
                dcache: Some(CacheConfig::small()),
            });
        }
        if let Some(rest) = s.strip_prefix("fixed:") {
            let (load, fetch) = rest
                .split_once(':')
                .ok_or_else(|| format!("fixed memory spec must be fixed:LOAD:FETCH, got {s:?}"))?;
            let model = MemoryModel::FixedLatency {
                load: load
                    .parse()
                    .map_err(|_| format!("bad fixed load latency {load:?}"))?,
                fetch: fetch
                    .parse()
                    .map_err(|_| format!("bad fixed fetch latency {fetch:?}"))?,
            };
            model.validate()?;
            return Ok(model);
        }
        if let Some(rest) = s.strip_prefix("cache:") {
            let (i, d) = rest
                .split_once(':')
                .ok_or_else(|| format!("cache memory spec must be cache:I:D, got {s:?}"))?;
            let side = |spec: &str| -> Result<Option<CacheConfig>, String> {
                if spec == "off" {
                    Ok(None)
                } else {
                    CacheConfig::parse(spec).map(Some)
                }
            };
            return Ok(MemoryModel::Cache {
                icache: side(i)?,
                dcache: side(d)?,
            });
        }
        Err(format!(
            "unknown memory model {s:?} (want perfect | fixed:LOAD:FETCH | cache[:I:D])"
        ))
    }
}

impl fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryModel::Perfect => write!(f, "perfect"),
            MemoryModel::FixedLatency { load, fetch } => write!(f, "fixed:{load}:{fetch}"),
            MemoryModel::Cache { icache, dcache } => {
                write!(f, "cache:")?;
                match icache {
                    Some(c) => write!(f, "{c}")?,
                    None => write!(f, "off")?,
                }
                write!(f, ":")?;
                match dcache {
                    Some(c) => write!(f, "{c}"),
                    None => write!(f, "off"),
                }
            }
        }
    }
}

/// Outcome of one cache probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheProbe {
    /// The line was resident.
    Hit,
    /// The line was not resident; it is now (LRU fill).
    Miss,
}

/// One set-associative LRU cache.
#[derive(Clone, Debug)]
pub struct CacheModel {
    cfg: CacheConfig,
    /// `tags[set * ways + way]` holds the resident line number.
    tags: Vec<Option<u64>>,
    /// Last-touch stamp per way, for LRU victim selection.
    lru: Vec<u64>,
    stamp: u64,
    /// Total probes.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl CacheModel {
    /// Builds an empty cache.  The config must already be validated.
    pub fn new(cfg: CacheConfig) -> CacheModel {
        let slots = cfg.sets * cfg.ways;
        CacheModel {
            cfg,
            tags: vec![None; slots],
            lru: vec![0; slots],
            stamp: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Maps a word address to its line number.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_words as u64
    }

    /// Probes (and on miss, fills) the given line, updating LRU state
    /// and counters.
    pub fn probe(&mut self, line: u64) -> CacheProbe {
        self.accesses += 1;
        self.stamp += 1;
        let set = (line % self.cfg.sets as u64) as usize;
        let base = set * self.cfg.ways;
        for way in 0..self.cfg.ways {
            if self.tags[base + way] == Some(line) {
                self.lru[base + way] = self.stamp;
                return CacheProbe::Hit;
            }
        }
        self.misses += 1;
        // LRU fill: an empty way if one exists, else the least
        // recently touched.
        let victim = (0..self.cfg.ways)
            .min_by_key(|&w| match self.tags[base + w] {
                None => (0, 0),
                Some(_) => (1, self.lru[base + w]),
            })
            .expect("ways >= 1");
        self.tags[base + victim] = Some(line);
        self.lru[base + victim] = self.stamp;
        CacheProbe::Miss
    }
}

/// Per-cache access/miss totals, folded into
/// [`RunStats`](crate::RunStats) when a run finishes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemCounters {
    /// I$ probes (one per word fetch started).
    pub icache_accesses: u64,
    /// I$ misses.
    pub icache_misses: u64,
    /// D$ probes (one per load that reached memory).
    pub dcache_accesses: u64,
    /// D$ misses.
    pub dcache_misses: u64,
}

#[derive(Clone, Debug)]
enum MemKind {
    Perfect,
    Fixed {
        load: u64,
        fetch: u64,
    },
    // Boxed: a CacheModel carries its LRU arrays, and the enum would
    // otherwise dwarf the Perfect/Fixed variants every machine clones.
    Cache {
        icache: Option<Box<CacheModel>>,
        dcache: Option<Box<CacheModel>>,
    },
}

/// One machine's memory timing state: the model, its cache contents,
/// and the in-progress word fetch.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    base_load: u64,
    kind: MemKind,
    /// The word index the fetch state below describes.
    fetch_pc: usize,
    /// Cycle at which that word's fetch completes.
    fetch_ready_at: u64,
}

impl MemorySystem {
    /// Builds the memory system for one machine.  `base_load` is
    /// `cfg.load_latency`, which the perfect model (and any `None`
    /// cache side) reproduces exactly.
    pub fn new(model: &MemoryModel, base_load: u64) -> MemorySystem {
        let kind = match model {
            MemoryModel::Perfect => MemKind::Perfect,
            MemoryModel::FixedLatency { load, fetch } => MemKind::Fixed {
                load: *load,
                fetch: *fetch,
            },
            MemoryModel::Cache { icache, dcache } => MemKind::Cache {
                icache: icache.map(|c| Box::new(CacheModel::new(c))),
                dcache: dcache.map(|c| Box::new(CacheModel::new(c))),
            },
        };
        MemorySystem {
            base_load,
            kind,
            fetch_pc: usize::MAX,
            fetch_ready_at: 0,
        }
    }

    /// Returns true if the front end must stall this cycle waiting for
    /// the word at `pc` to arrive.  The first call for a given `pc`
    /// starts the fetch (probing the I$ once); subsequent calls while
    /// the machine stalls on the same word do not re-fetch.
    ///
    /// Under [`MemoryModel::Perfect`] this touches no state and never
    /// stalls — bit-identity with the pre-refactor front end.
    pub fn fetch_stalls(&mut self, pc: usize, cycle: u64) -> bool {
        let latency = match &mut self.kind {
            MemKind::Perfect => return false,
            MemKind::Cache { icache: None, .. } => return false,
            MemKind::Fixed { fetch, .. } => {
                if *fetch <= 1 {
                    return false;
                }
                *fetch
            }
            MemKind::Cache {
                icache: Some(cache),
                ..
            } => {
                if self.fetch_pc == pc {
                    return self.fetch_ready_at > cycle;
                }
                let line = cache.line_of(pc as u64);
                match cache.probe(line) {
                    CacheProbe::Hit => cache.cfg.hit_latency,
                    CacheProbe::Miss => cache.cfg.miss_latency,
                }
            }
        };
        if self.fetch_pc == pc {
            return self.fetch_ready_at > cycle;
        }
        self.fetch_pc = pc;
        self.fetch_ready_at = cycle + latency - 1;
        self.fetch_ready_at > cycle
    }

    /// The cycle at which the word whose fetch [`fetch_stalls`] last
    /// started arrives: while the front end stalls on that word, the
    /// first cycle it can issue.
    ///
    /// [`fetch_stalls`]: Self::fetch_stalls
    pub(crate) fn fetch_ready_at(&self) -> u64 {
        self.fetch_ready_at
    }

    /// Latency of a load that reaches real memory, probing the D$
    /// under a cache model.  Returns `(latency, missed)`.
    pub fn load_latency(&mut self, addr: i64) -> (u64, bool) {
        match &mut self.kind {
            MemKind::Perfect => (self.base_load, false),
            MemKind::Fixed { load, .. } => (*load, false),
            MemKind::Cache { dcache: None, .. } => (self.base_load, false),
            MemKind::Cache {
                dcache: Some(cache),
                ..
            } => {
                let line = cache.line_of(addr.max(0) as u64);
                match cache.probe(line) {
                    CacheProbe::Hit => (cache.cfg.hit_latency, false),
                    CacheProbe::Miss => (cache.cfg.miss_latency, true),
                }
            }
        }
    }

    /// Latency of a load that bypasses memory: store-buffer forwards
    /// and faulting/latched accesses.  These never probe the D$.
    pub fn bypass_latency(&self) -> u64 {
        match &self.kind {
            MemKind::Perfect => self.base_load,
            MemKind::Fixed { load, .. } => *load,
            MemKind::Cache { dcache: None, .. } => self.base_load,
            MemKind::Cache {
                dcache: Some(cache),
                ..
            } => cache.cfg.hit_latency,
        }
    }

    /// Snapshot of the access/miss totals (zero under non-cache
    /// models).
    pub fn counters(&self) -> MemCounters {
        match &self.kind {
            MemKind::Perfect | MemKind::Fixed { .. } => MemCounters::default(),
            MemKind::Cache { icache, dcache } => MemCounters {
                icache_accesses: icache.as_ref().map_or(0, |c| c.accesses),
                icache_misses: icache.as_ref().map_or(0, |c| c.misses),
                dcache_accesses: dcache.as_ref().map_or(0, |c| c.accesses),
                dcache_misses: dcache.as_ref().map_or(0, |c| c.misses),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_spec_round_trips() {
        let cfg = CacheConfig::parse("64x2x4x1x10").unwrap();
        assert_eq!(cfg, CacheConfig::small());
        assert_eq!(cfg.to_string(), "64x2x4x1x10");
        assert!(CacheConfig::parse("64x2x4x1").is_err());
        assert!(CacheConfig::parse("0x2x4x1x10").is_err());
        assert!(CacheConfig::parse("64x2x4x2x1").is_err(), "miss < hit");
    }

    #[test]
    fn memory_model_specs_round_trip() {
        for s in [
            "perfect",
            "fixed:4:2",
            "cache:off:64x2x4x1x10",
            "cache:8x1x2x1x5:off",
        ] {
            let m = MemoryModel::parse(s).unwrap();
            assert_eq!(m.to_string(), s, "round trip of {s:?}");
        }
        assert_eq!(
            MemoryModel::parse("cache").unwrap(),
            MemoryModel::Cache {
                icache: None,
                dcache: Some(CacheConfig::small())
            }
        );
        assert!(MemoryModel::parse("fixed:0:1").is_err());
        assert!(MemoryModel::parse("dram").is_err());
    }

    /// Hand-computed trace on a direct-mapped 2-set, 1-way, 1-word-line
    /// cache (capacity 2 lines).
    ///
    /// Accesses: 0, 2, 0, 1, 3, 1, 2 (even lines → set 0, odd → set 1).
    /// Lines 0 and 2 keep evicting each other from set 0, and 1 and 3
    /// from set 1, so every access misses.
    #[test]
    fn direct_mapped_trace_matches_hand_computation() {
        let mut c = CacheModel::new(CacheConfig {
            sets: 2,
            ways: 1,
            line_words: 1,
            hit_latency: 1,
            miss_latency: 10,
        });
        let outcomes: Vec<CacheProbe> = [0u64, 2, 0, 1, 3, 1, 2]
            .iter()
            .map(|&a| c.probe(a))
            .collect();
        assert_eq!(outcomes, vec![CacheProbe::Miss; 7]);
        assert_eq!(c.accesses, 7);
        assert_eq!(c.misses, 7);
    }

    /// Same trace on a fully-associative cache of the same capacity:
    /// the set-conflict misses become hits, and the final access to 2
    /// (evicted as LRU by 1) still misses.
    #[test]
    fn fully_associative_turns_conflicts_into_hits() {
        let mut c = CacheModel::new(CacheConfig {
            sets: 1,
            ways: 2,
            line_words: 1,
            hit_latency: 1,
            miss_latency: 10,
        });
        let outcomes: Vec<CacheProbe> = [0u64, 2, 0, 1, 3, 1, 2]
            .iter()
            .map(|&a| c.probe(a))
            .collect();
        assert_eq!(
            outcomes,
            vec![
                CacheProbe::Miss,
                CacheProbe::Miss,
                CacheProbe::Hit,
                CacheProbe::Miss,
                CacheProbe::Miss,
                CacheProbe::Hit,
                CacheProbe::Miss,
            ]
        );
        assert_eq!((c.accesses, c.misses), (7, 5));
    }

    #[test]
    fn lru_hits_within_a_set() {
        // 1 set × 2 ways: 0, 1 fill; touching 0 makes 1 the LRU
        // victim for 2; then 1 misses but 0 still hits.
        let mut c = CacheModel::new(CacheConfig {
            sets: 1,
            ways: 2,
            line_words: 1,
            hit_latency: 1,
            miss_latency: 10,
        });
        assert_eq!(c.probe(0), CacheProbe::Miss);
        assert_eq!(c.probe(1), CacheProbe::Miss);
        assert_eq!(c.probe(0), CacheProbe::Hit);
        assert_eq!(c.probe(2), CacheProbe::Miss);
        assert_eq!(c.probe(0), CacheProbe::Hit, "0 was MRU, must survive");
        assert_eq!(c.probe(1), CacheProbe::Miss);
    }

    #[test]
    fn lines_group_words() {
        let mut c = CacheModel::new(CacheConfig {
            sets: 4,
            ways: 1,
            line_words: 4,
            hit_latency: 1,
            miss_latency: 10,
        });
        assert_eq!(c.probe(c.line_of(0)), CacheProbe::Miss);
        assert_eq!(c.probe(c.line_of(3)), CacheProbe::Hit, "same 4-word line");
        assert_eq!(c.probe(c.line_of(4)), CacheProbe::Miss);
    }

    #[test]
    fn fetch_state_fetches_a_word_once() {
        let model = MemoryModel::Cache {
            icache: Some(CacheConfig {
                sets: 2,
                ways: 1,
                line_words: 1,
                hit_latency: 1,
                miss_latency: 3,
            }),
            dcache: None,
        };
        let mut mem = MemorySystem::new(&model, 2);
        // Cold miss at pc 0: 3-cycle fetch started at cycle 1 is ready
        // at cycle 3 — two stall cycles, no re-probe while waiting.
        assert!(mem.fetch_stalls(0, 1));
        assert!(mem.fetch_stalls(0, 2));
        assert!(!mem.fetch_stalls(0, 3));
        // Staying on the same word (operand stall, say) stays free.
        assert!(!mem.fetch_stalls(0, 4));
        // Next word: new cold miss.
        assert!(mem.fetch_stalls(1, 5));
        assert!(!mem.fetch_stalls(1, 7));
        // Looping back to word 0: I$ hit, no stall.
        assert!(!mem.fetch_stalls(0, 8));
        let c = mem.counters();
        assert_eq!(c.icache_accesses, 3);
        assert_eq!(c.icache_misses, 2);
        assert_eq!(c.dcache_accesses, 0);
    }

    #[test]
    fn perfect_and_fixed_latencies() {
        let mut perfect = MemorySystem::new(&MemoryModel::Perfect, 2);
        assert_eq!(perfect.load_latency(7), (2, false));
        assert_eq!(perfect.bypass_latency(), 2);
        assert!(!perfect.fetch_stalls(0, 1));

        let mut fixed = MemorySystem::new(&MemoryModel::FixedLatency { load: 5, fetch: 2 }, 2);
        assert_eq!(fixed.load_latency(7), (5, false));
        assert_eq!(fixed.bypass_latency(), 5);
        assert!(fixed.fetch_stalls(0, 1), "2-cycle fetch stalls one cycle");
        assert!(!fixed.fetch_stalls(0, 2));

        let mut dcache = MemorySystem::new(
            &MemoryModel::Cache {
                icache: None,
                dcache: Some(CacheConfig {
                    sets: 2,
                    ways: 1,
                    line_words: 1,
                    hit_latency: 2,
                    miss_latency: 9,
                }),
            },
            3,
        );
        assert_eq!(dcache.load_latency(7), (9, true), "cold miss");
        assert_eq!(dcache.load_latency(7), (2, false), "now resident");
        assert_eq!(dcache.bypass_latency(), 2, "SB forward at hit latency");
        assert!(!dcache.fetch_stalls(0, 1), "icache off");
        let c = dcache.counters();
        assert_eq!((c.dcache_accesses, c.dcache_misses), (2, 1));
    }
}
