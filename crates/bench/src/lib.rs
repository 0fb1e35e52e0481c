//! Shared harness utilities for the per-table/figure benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §2 for the index). All binaries accept:
//!
//! * `--full` — paper-scale parameters (10 000 profiling vectors, all
//!   eight circuits, full instance counts). The default is a scaled-down
//!   configuration that completes in seconds.
//! * `--circuits a,b,c` — restrict to a subset of circuits.

/// Re-exported from [`htforge_obs`] so the table binaries render their
/// terminal reports and JSON table dumps through the same code path as
/// the observability summary sink.
pub use htforge_obs::Table;

pub mod campaign;

const USAGE: &str = "supported flags: --full, --circuits a,b,c, --fresh";

/// Parsed command-line options shared by the table binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Paper-scale parameters when set (`--full`).
    pub full: bool,
    /// Circuits to run on (defaults chosen by each binary).
    pub circuits: Option<Vec<String>>,
    /// Ignore campaign checkpoints and recompute everything (`--fresh`).
    pub fresh: bool,
}

impl HarnessOpts {
    /// Parses `std::env::args`; on a malformed command line prints a
    /// one-line diagnostic plus usage to stderr and exits with status 2
    /// (it never panics).
    #[must_use]
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument iterator (what [`HarnessOpts::from_env`] feeds
    /// from the real command line).
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic for unknown flags or a missing
    /// `--circuits` value.
    pub fn parse<I: Iterator<Item = String>>(mut args: I) -> Result<Self, String> {
        let mut opts = HarnessOpts {
            full: false,
            circuits: None,
            fresh: false,
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => opts.full = true,
                "--fresh" => opts.fresh = true,
                "--circuits" => {
                    let list = args
                        .next()
                        .ok_or("--circuits requires a comma-separated list")?;
                    opts.circuits = Some(list.split(',').map(|s| s.trim().to_owned()).collect());
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The circuit list to use, defaulting to `default` (scaled mode) or
    /// all eight paper benchmarks (`--full`).
    #[must_use]
    pub fn circuits_or(&self, default: &[&str]) -> Vec<String> {
        match &self.circuits {
            Some(list) => list.clone(),
            None if self.full => htforge_circuits::paper_benchmarks()
                .into_iter()
                .map(str::to_owned)
                .collect(),
            None => default.iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

/// Formats a `Duration` in minutes with the paper's precision.
#[must_use]
pub fn minutes(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64() / 60.0)
}

pub mod scalar {
    //! Reference gate-at-a-time interpreter.
    //!
    //! This is the pre-kernel `Simulator::run_on` loop, preserved here as
    //! the *baseline* the compiled [`htforge_sim::SimProgram`] is
    //! benchmarked against (`bin/bench_sim.rs`).
    //! It re-dispatches on the gate kind and re-fills a scratch `Vec` for
    //! every gate × word visit — exactly the overhead the instruction
    //! tape eliminates — but its output is bit-identical to the kernel's.

    use htforge_netlist::{Netlist, NodeKind};
    use htforge_sim::PatternSet;

    /// Simulates `patterns` gate-at-a-time; returns node-major packed
    /// words (`words[node * words_per_node + w]`), tails masked.
    ///
    /// # Panics
    ///
    /// Panics if `nl` is cyclic or the pattern width does not match.
    #[must_use]
    pub fn simulate(nl: &Netlist, patterns: &PatternSet) -> Vec<u64> {
        assert_eq!(patterns.num_inputs(), nl.inputs().len());
        let order = htforge_netlist::graph::topo_order(nl).expect("acyclic netlist");
        let words_per_node = PatternSet::words_for(patterns.len());
        let tail_mask = PatternSet::tail_mask(patterns.len());
        let mut words = vec![0u64; nl.node_count() * words_per_node];

        for (pos, &node) in nl.inputs().iter().enumerate() {
            let base = node.index() * words_per_node;
            words[base..base + words_per_node].copy_from_slice(patterns.input_words(pos));
        }

        let mut scratch: Vec<u64> = Vec::new();
        for &id in &order {
            let node = nl.node(id);
            let kind = match node.kind() {
                NodeKind::Gate(k) => k,
                NodeKind::Input | NodeKind::Dff => continue,
            };
            let fanins = node.fanins();
            for w in 0..words_per_node {
                scratch.clear();
                for &f in fanins {
                    scratch.push(words[f.index() * words_per_node + w]);
                }
                let mut v = kind.eval_bits(&scratch);
                if w + 1 == words_per_node {
                    v &= tail_mask;
                }
                words[id.index() * words_per_node + w] = v;
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minutes_formatting() {
        assert_eq!(minutes(std::time::Duration::from_secs(60)), "1.000");
        assert_eq!(minutes(std::time::Duration::from_millis(10980)), "0.183");
    }

    #[test]
    fn circuits_or_default_and_full() {
        let opts = HarnessOpts {
            full: false,
            circuits: None,
            fresh: false,
        };
        assert_eq!(opts.circuits_or(&["c17"]), vec!["c17".to_owned()]);
        let full = HarnessOpts {
            full: true,
            circuits: None,
            fresh: false,
        };
        assert_eq!(full.circuits_or(&["c17"]).len(), 8);
        let explicit = HarnessOpts {
            full: false,
            circuits: Some(vec!["c2670".into()]),
            fresh: false,
        };
        assert_eq!(explicit.circuits_or(&["c17"]), vec!["c2670".to_owned()]);
    }

    #[test]
    fn parse_accepts_known_flags_and_rejects_unknown() {
        let ok = HarnessOpts::parse(
            ["--full", "--fresh", "--circuits", "c17, c2670"]
                .iter()
                .map(ToString::to_string),
        )
        .unwrap();
        assert!(ok.full && ok.fresh);
        assert_eq!(
            ok.circuits,
            Some(vec!["c17".to_owned(), "c2670".to_owned()])
        );

        let unknown = HarnessOpts::parse(["--wat"].iter().map(ToString::to_string)).unwrap_err();
        assert!(unknown.contains("--wat"));

        let missing =
            HarnessOpts::parse(["--circuits"].iter().map(ToString::to_string)).unwrap_err();
        assert!(missing.contains("--circuits"));
    }
}
