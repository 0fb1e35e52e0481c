//! Content-hash-keyed cache of compiled circuits.
//!
//! The daemon's whole point is that repeated jobs on the same circuit
//! skip the expensive prefix: `.bench` parsing, scan-cutting, and
//! `SimProgram` compilation happen once per *content hash* (see
//! [`CircuitSource::content_hash`]) and every later job shares the
//! result through [`Arc`]s (a DFF-free design is its own combinational
//! view, so no netlist copy either). Rare-node profiles are cached per
//! `(θ, vectors, seed)` on top, since `grade`/`detect` jobs re-profile
//! identically.
//!
//! Compilation happens *under the map lock*: two racing jobs on the
//! same new circuit never compile twice (the concurrency differential
//! suite asserts exactly-one-compile via [`CacheStats`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use htforge_circuits as circuits;
use htforge_netlist::{bench, Netlist};
use htforge_sim::{PatternSet, RareNodeExtractor, RareNodeSet, SimProgram};

use crate::protocol::CircuitSource;

/// One compiled circuit shared by every job that names it.
#[derive(Debug)]
pub struct CompiledCircuit {
    /// Human-readable label (builtin name or `inline:<hash>`).
    pub label: String,
    /// The design as loaded (may be sequential).
    pub golden: Arc<Netlist>,
    /// Combinational view: `golden` itself, or its scan cut.
    pub comb: Arc<Netlist>,
    /// Simulation program compiled over `comb` (shared, thread-safe to
    /// run).
    pub sim: SimProgram,
    rare: Mutex<HashMap<RareKey, Arc<RareNodeSet>>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RareKey {
    theta_bits: u64,
    vectors: usize,
    seed: u64,
}

/// Monotonic cache counters (mirrored into the `server.cache_*` obs
/// counters by the core; exposed directly for test assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a compiled circuit.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Compilations performed (== `misses` unless a compile failed).
    pub compiles: u64,
    /// Rare-profile lookups served from cache.
    pub rare_hits: u64,
    /// Rare-profile lookups that had to profile.
    pub rare_misses: u64,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    rare_hits: AtomicU64,
    rare_misses: AtomicU64,
}

/// The compiled-program cache.
#[derive(Debug, Default)]
pub struct ProgramCache {
    map: Mutex<HashMap<u64, Arc<CompiledCircuit>>>,
    counters: Counters,
}

impl ProgramCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct circuits currently cached.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            compiles: self.counters.compiles.load(Ordering::Relaxed),
            rare_hits: self.counters.rare_hits.load(Ordering::Relaxed),
            rare_misses: self.counters.rare_misses.load(Ordering::Relaxed),
        }
    }

    /// Hit fraction over all compiled-circuit lookups so far (0 when
    /// none happened yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let s = self.stats();
        let total = s.hits + s.misses;
        if total == 0 {
            0.0
        } else {
            s.hits as f64 / total as f64
        }
    }

    /// Returns the compiled circuit for `src`, compiling it on first
    /// sight. The boolean is `true` on a cache hit.
    ///
    /// # Errors
    ///
    /// Returns a description when the circuit cannot be loaded, parsed
    /// or compiled (failed compiles are not cached; a later retry
    /// recompiles).
    pub fn get_or_compile(
        &self,
        src: &CircuitSource,
    ) -> Result<(Arc<CompiledCircuit>, bool), String> {
        let key = src.content_hash();
        let mut map = self.map.lock().unwrap();
        if let Some(hit) = map.get(&key) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), true));
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(compile(src)?);
        self.counters.compiles.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Arc::clone(&compiled));
        Ok((compiled, false))
    }

    /// The rare-node profile of `circuit` at `(theta, vectors, seed)`,
    /// computed once and shared thereafter.
    ///
    /// # Errors
    ///
    /// Propagates the extractor's netlist error.
    pub fn rare_profile(
        &self,
        circuit: &CompiledCircuit,
        theta: f64,
        vectors: usize,
        seed: u64,
    ) -> Result<Arc<RareNodeSet>, String> {
        let key = RareKey {
            theta_bits: theta.to_bits(),
            vectors,
            seed,
        };
        let mut rare = circuit.rare.lock().unwrap();
        if let Some(hit) = rare.get(&key) {
            self.counters.rare_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.counters.rare_misses.fetch_add(1, Ordering::Relaxed);
        let patterns = PatternSet::random(circuit.comb.inputs().len(), vectors, seed);
        let set = RareNodeExtractor::new(theta)
            .extract(&circuit.comb, &patterns)
            .map_err(|e| e.to_string())?;
        let set = Arc::new(set);
        rare.insert(key, Arc::clone(&set));
        Ok(set)
    }
}

fn compile(src: &CircuitSource) -> Result<CompiledCircuit, String> {
    let golden = match src {
        CircuitSource::Builtin(name) => circuits::load(name).map_err(|e| e.to_string())?,
        CircuitSource::Inline(text) => bench::parse(text, "inline").map_err(|e| e.to_string())?,
    };
    let golden = Arc::new(golden);
    let comb = if golden.dffs().is_empty() {
        Arc::clone(&golden)
    } else {
        Arc::new(golden.scan_cut())
    };
    let sim = SimProgram::compile(&comb).map_err(|e| e.to_string())?;
    Ok(CompiledCircuit {
        label: src.label(),
        golden,
        comb,
        sim,
        rare: Mutex::new(HashMap::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_once_and_hits_thereafter() {
        let cache = ProgramCache::new();
        let src = CircuitSource::Builtin("c17".into());
        let (a, hit_a) = cache.get_or_compile(&src).unwrap();
        let (b, hit_b) = cache.get_or_compile(&src).unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compiles), (1, 1, 1));
        assert_eq!(cache.entries(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inline_and_builtin_are_distinct_entries() {
        let cache = ProgramCache::new();
        let inline = CircuitSource::Inline(bench::write(&circuits::load("c17").unwrap()));
        cache
            .get_or_compile(&CircuitSource::Builtin("c17".into()))
            .unwrap();
        let (compiled, hit) = cache.get_or_compile(&inline).unwrap();
        assert!(!hit);
        assert_eq!(cache.entries(), 2);
        assert!(compiled.label.starts_with("inline:"));
        assert_eq!(compiled.comb.inputs().len(), 5);
    }

    #[test]
    fn reformatted_inline_text_shares_one_entry() {
        let cache = ProgramCache::new();
        let canonical = bench::write(&circuits::load("c17").unwrap());
        let airy = format!(
            "# resubmitted with comments\n\n  {}",
            canonical.replace('\n', "  \n\n  ")
        );
        let (a, hit_a) = cache
            .get_or_compile(&CircuitSource::Inline(canonical))
            .unwrap();
        let (b, hit_b) = cache.get_or_compile(&CircuitSource::Inline(airy)).unwrap();
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let cache = ProgramCache::new();
        let bad = CircuitSource::Inline("y = NOT(".into());
        assert!(cache.get_or_compile(&bad).is_err());
        assert!(cache.get_or_compile(&bad).is_err());
        let s = cache.stats();
        assert_eq!((s.misses, s.compiles, cache.entries()), (2, 0, 0));
    }

    #[test]
    fn sequential_circuits_get_a_scan_cut_comb_view() {
        let cache = ProgramCache::new();
        let (compiled, _) = cache
            .get_or_compile(&CircuitSource::Builtin("s1423".into()))
            .unwrap();
        assert!(!compiled.golden.dffs().is_empty());
        assert!(compiled.comb.inputs().len() > compiled.golden.inputs().len());
    }

    #[test]
    fn rare_profiles_cache_per_key() {
        let cache = ProgramCache::new();
        let (c17, _) = cache
            .get_or_compile(&CircuitSource::Builtin("c17".into()))
            .unwrap();
        let a = cache.rare_profile(&c17, 0.3, 512, 1).unwrap();
        let b = cache.rare_profile(&c17, 0.3, 512, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.rare_profile(&c17, 0.3, 512, 2).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let s = cache.stats();
        assert_eq!((s.rare_hits, s.rare_misses), (1, 2));
    }
}
