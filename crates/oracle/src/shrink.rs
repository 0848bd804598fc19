//! Shrinking of failing campaigns to a minimal reproducer.
//!
//! Two passes over the *original* assembly program, each keeping a
//! cumulative set of removed text-item indices (indices are stable
//! relative to the original program; every candidate is rebuilt from
//! the original with [`hgl_asm::Asm::without_text_items`]):
//!
//! 1. drop whole generator segment spans,
//! 2. drop individual instructions, to a fixpoint.
//!
//! A removal is kept only if the caller's reproduction predicate still
//! holds on the candidate: the conformance campaign asks for a
//! violation of the same kind on the same seeded entry state, the
//! differential campaign for any divergence on it. Labels are never
//! removed, so branch fixups stay resolvable and a removal can only
//! change semantics, not well-formedness.

use hgl_asm::Asm;
use std::collections::BTreeSet;

/// A minimal reproducer for a campaign failure.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// Text-item indices (into the original program) removed.
    pub removed: BTreeSet<usize>,
    /// Instructions remaining in the shrunk program.
    pub instructions: usize,
    /// Listing of the shrunk program.
    pub listing: String,
}

/// Shrink a failing program to a minimal reproducer.
///
/// `spans` are the generator's segment spans (half-open text-item
/// ranges); `reproduces` is called on each candidate program and says
/// whether the failure still shows.
pub fn shrink(
    asm: &Asm,
    spans: &[(usize, usize)],
    mut reproduces: impl FnMut(&Asm) -> bool,
) -> ShrinkResult {
    let mut removed: BTreeSet<usize> = BTreeSet::new();
    let mut keeps = |trial: &BTreeSet<usize>| reproduces(&asm.without_text_items(trial));

    // Pass 1: whole segment spans, largest first.
    let mut ordered: Vec<(usize, usize)> = spans.to_vec();
    ordered.sort_by_key(|(s, e)| std::cmp::Reverse(e - s));
    for (s, e) in ordered {
        let trial: BTreeSet<usize> = removed.iter().copied().chain(s..e).collect();
        if trial.len() > removed.len() && keeps(&trial) {
            removed = trial;
        }
    }

    // Pass 2: individual instructions, to a fixpoint.
    loop {
        let mut progressed = false;
        for idx in 0..asm.text_len() {
            if removed.contains(&idx) || !asm.is_instruction(idx) {
                continue;
            }
            let mut trial = removed.clone();
            trial.insert(idx);
            if keeps(&trial) {
                removed = trial;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let shrunk = asm.without_text_items(&removed);
    let instructions = (0..shrunk.text_len()).filter(|&i| shrunk.is_instruction(i)).count();
    ShrinkResult { removed, instructions, listing: shrunk.listing() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::synth_program;

    /// The shrinker on a synthesized program, with a predicate that
    /// needs one `mov eax, 0xd` and one `ret` to survive: both passes
    /// must leave exactly those two instructions, and the instruction
    /// pass, walking indices upwards, keeps the last of each.
    #[test]
    fn shrink_keeps_exactly_what_the_predicate_needs() {
        let prog = synth_program(0x5eed, 3);
        let needs = |a: &Asm| {
            let listing = a.listing();
            a.assemble().is_ok()
                && listing.lines().any(|l| l.trim() == "mov eax, 0xd")
                && listing.lines().any(|l| l.trim() == "ret")
        };
        assert!(needs(&prog.asm));
        let mut calls = 0;
        let shrunk = shrink(&prog.asm, &prog.spans, |a| {
            calls += 1;
            needs(a)
        });
        let kept: Vec<usize> = (0..prog.asm.text_len())
            .filter(|i| prog.asm.is_instruction(*i) && !shrunk.removed.contains(i))
            .collect();
        let left: Vec<&str> = shrunk
            .listing
            .lines()
            .filter(|l| l.starts_with(' '))
            .map(str::trim)
            .collect();
        assert_eq!(shrunk.instructions, 2);
        assert_eq!(left, ["mov eax, 0xd", "ret"]);
        // Text items 110 and 118 are main's `mov eax, 0xd` case and its
        // final `ret`, the last of each in the program.
        assert_eq!(kept, [110, 118]);
        assert_eq!(prog.asm.text_len(), 119);
        assert_eq!(calls, 50);
    }
}
