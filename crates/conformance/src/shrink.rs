//! Deterministic minimization of diverging programs.
//!
//! The shrinker works on the item IR, not on raw bytes, so every
//! candidate re-lowers to a legal program (offsets are recomputed,
//! forward-skips re-clamped by `normalize`). Three passes run to a
//! fixpoint:
//!
//! 1. ddmin-style deletion of top-level item windows (halving window
//!    sizes);
//! 2. hardware-loop simplification: inline the body in place of the
//!    loop, reduce the trip count to 1, drop body items;
//! 3. repeat until no pass makes progress.
//!
//! Every accepted candidate strictly decreases the lexicographic metric
//! (instruction count, sum of loop counts), so the process terminates.

use crate::diff::{run_spec, CaseOutcome};
use crate::gen::{self, Item, ProgramSpec};
use crate::refcore::RefBug;

fn diverges(spec: &ProgramSpec, bug: RefBug, max_steps: u64) -> bool {
    matches!(run_spec(spec, bug, max_steps), CaseOutcome::Diverged(_))
}

/// Minimizes `spec` while it keeps diverging under `bug`. Returns the
/// input unchanged if it does not diverge in the first place.
pub fn shrink(spec: &ProgramSpec, bug: RefBug, max_steps: u64) -> ProgramSpec {
    shrink_with(spec, |cand| diverges(cand, bug, max_steps))
}

/// [`shrink`] generalized over the divergence oracle: minimizes `spec`
/// while `diverges` keeps returning true. Any lockstep comparison — the
/// reference-interpreter diff, the block-replay-vs-reference-step check —
/// plugs in as the predicate and inherits the full ddmin + loop
/// simplification machinery.
pub fn shrink_with(spec: &ProgramSpec, diverges: impl Fn(&ProgramSpec) -> bool) -> ProgramSpec {
    if !diverges(spec) {
        return spec.clone();
    }
    let mut cur = spec.clone();
    loop {
        let mut progressed = false;

        // Pass 1: drop windows of top-level items, largest first.
        let mut size = cur.items.len();
        while size >= 1 {
            let mut start = 0;
            while start < cur.items.len() {
                if cur.items.len() <= 1 {
                    break;
                }
                let end = (start + size).min(cur.items.len());
                let mut cand = cur.clone();
                cand.items.drain(start..end);
                gen::normalize(&mut cand.items);
                if !cand.items.is_empty() && diverges(&cand) {
                    cur = cand;
                    progressed = true;
                    // Retry the same window position on the smaller list.
                } else {
                    start += 1;
                }
            }
            size /= 2;
        }

        // Pass 2: simplify hardware loops.
        let mut idx = 0;
        while idx < cur.items.len() {
            let Item::Loop { count, body, .. } = &cur.items[idx] else {
                idx += 1;
                continue;
            };
            let (count, body) = (*count, body.clone());

            // (a) Inline the body in place of the loop (removes the
            // lp.setup, strictly fewer instructions). Nested loops in
            // the body stay loops — they get their own visit.
            let mut cand = cur.clone();
            cand.items.splice(idx..idx + 1, body.clone());
            gen::normalize(&mut cand.items);
            if diverges(&cand) {
                cur = cand;
                progressed = true;
                continue; // revisit idx: it now holds a body item
            }

            // (b) Trip count down to 1 (only a strict decrease).
            if count > 1 {
                let mut cand = cur.clone();
                if let Item::Loop { count, .. } = &mut cand.items[idx] {
                    *count = 1;
                }
                if diverges(&cand) {
                    cur = cand;
                    progressed = true;
                    continue;
                }
            }

            // (c) Drop body items one at a time.
            if body.len() > 1 {
                let mut dropped = false;
                for j in 0..body.len() {
                    let mut cand = cur.clone();
                    if let Item::Loop { body, .. } = &mut cand.items[idx] {
                        body.remove(j);
                    }
                    if diverges(&cand) {
                        cur = cand;
                        progressed = true;
                        dropped = true;
                        break;
                    }
                }
                if dropped {
                    continue; // revisit the same loop with its smaller body
                }
            }
            idx += 1;
        }

        if !progressed {
            return cur;
        }
    }
}
