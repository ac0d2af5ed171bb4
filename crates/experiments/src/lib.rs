//! Shared helpers for the experiment binaries and benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see EXPERIMENTS.md for the index). This library holds the common
//! pieces: deterministic weight sources (random-initialized and trained
//! LeNet), packet pools for the "without NoC" experiments, a tiny
//! CLI-argument parser so the binaries stay dependency-light, the
//! parallel sweep runner, the JSON writer behind the machine-readable
//! result files, and the `btr-serve-v2` schema for the multi-session
//! service front-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod serve_json;
pub mod sweep;
pub mod workloads;

#[cfg(test)]
mod tests {
    //! The sweep's thread fan-out ([`crate::sweep::par_run`]).

    use crate::sweep::par_run;

    #[test]
    fn map_preserves_order() {
        for sequential in [false, true] {
            let doubled = par_run((0..1000).collect(), sequential, |x: usize| x * 2);
            assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_iter_over_refs() {
        let v: Vec<u64> = (0..100).collect();
        let plus_one = par_run(v.iter().collect(), false, |&x| x + 1);
        assert_eq!(plus_one.iter().sum::<u64>(), (1..=100).sum::<u64>());
    }

    #[test]
    fn empty_and_single() {
        assert!(par_run(Vec::<u8>::new(), false, |x| x).is_empty());
        assert_eq!(par_run(vec![7u8], false, |x| x + 1), vec![8]);
    }
}
