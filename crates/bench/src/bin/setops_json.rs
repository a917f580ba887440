//! Machine-readable benchmark for the structural set algebra
//! (`BENCH_setops.json` at the repository root): `union` and `diff`
//! medians on three operand shapes, each against the documented
//! element-wise fallback.
//!
//! The shapes bracket the sharing spectrum:
//!
//! * `identical` — the second operand is a clone of the first: both roots
//!   are pointer-equal, so the structural walk returns without visiting a
//!   single node (the zero-allocation fast path).
//! * `divergent1pct` — the second operand is the first, frozen, then
//!   edited in 1% of its elements: the regime the algebra is built for.
//!   The lockstep walk prices only the divergent spine, O(changed).
//! * `disjoint` — no shared structure at all: the structural walk's worst
//!   case, where it degenerates to the same O(n + m) as element-wise (it
//!   merges nodes instead of probing elements, so it typically still wins,
//!   but no 10x is claimed here).
//!
//! Knobs via environment (the `AXIOM_SETOPS` prefix of
//! [`paper_bench::report`]):
//!
//! * `AXIOM_SETOPS_PROFILE` — `quick` (CI smoke) or `thorough` (default;
//!   the 1M-element numbers checked into the repository);
//! * `AXIOM_SETOPS_OUT` — output path (default `BENCH_setops.json`; `-`
//!   for stdout only);
//! * `AXIOM_SETOPS_GATE` — when set, exit nonzero unless at the largest
//!   size, on the `divergent1pct` shape, the structural `diff` beats its
//!   element-wise fallback by at least `AXIOM_SETOPS_MIN_SPEEDUP`
//!   (default 10.0) and the structural `union` by at least
//!   `AXIOM_SETOPS_MIN_UNION_SPEEDUP` (default 2.5). The bars differ
//!   because `diff` only *reports* the divergence while `union` must also
//!   *build* the result — path-copying ~10k scattered divergent paths is
//!   real work no walk can skip, so union's honest ceiling on this shape
//!   is a few-fold, while diff's is bounded only by the divergence.

use axiom::AxiomSet;
use champ::ChampSet;
use paper_bench::report::{median_ns, Bench, Gate, Row};
use trie_common::ops::{SetAlgebraOps, SetDiff, SetOps};

/// The documented element-wise `diff` fallback, reproduced here so the
/// structural implementation is measured against exactly what it replaced.
fn diff_elementwise<S: SetOps<u64>>(a: &S, b: &S) -> SetDiff<u64> {
    let mut out = SetDiff::new();
    for v in b.iter() {
        if !a.contains(v) {
            out.added.push(*v);
        }
    }
    for v in a.iter() {
        if !b.contains(v) {
            out.removed.push(*v);
        }
    }
    out
}

/// Builds the three operand shapes at size `n` for one set type and times
/// `union` and `diff` on each, structural against element-wise.
fn bench_set<S>(name: &str, n: usize, reps: usize, union_elementwise: fn(&S, &S) -> S) -> Vec<Row>
where
    S: SetAlgebraOps<u64> + FromIterator<u64>,
{
    let m = n as u64;
    let a: S = (0..m).collect();
    // Freeze, then rewrite 1% of the elements: remove an existing member,
    // insert a fresh one, spread across the key space so the divergence
    // touches many subtrees.
    let divergent = (0..m)
        .step_by(100)
        .fold(a.clone(), |b, i| b.removed(&i).inserted(m + i));
    let shapes = [
        ("identical", a.clone()),
        ("divergent1pct", divergent),
        ("disjoint", (m..2 * m).collect()),
    ];
    let mut rows = Vec::new();
    for (shape, b) in &shapes {
        let structural_union = median_ns(reps, || a.union(b).len());
        let elementwise_union = median_ns(reps, || union_elementwise(&a, b).len());
        let structural_diff = median_ns(reps, || a.diff(b).len());
        let elementwise_diff = median_ns(reps, || diff_elementwise(&a, b).len());
        for (op, s, e) in [
            ("union", structural_union, elementwise_union),
            ("diff", structural_diff, elementwise_diff),
        ] {
            eprintln!(
                "  {name} {op:5} {shape:13}: structural {s:9.0}ns, element-wise {e:11.0}ns, \
                 x{:.1}",
                e / s
            );
            rows.push(
                Row::new()
                    .str("impl", name)
                    .str("op", op)
                    .str("shape", shape)
                    .int("n", n)
                    .num("structural_median_ns", s, 0)
                    .num("elementwise_median_ns", e, 0)
                    .num("speedup", e / s, 2),
            );
        }
    }
    rows
}

fn main() {
    let bench = Bench::from_env("AXIOM_SETOPS");
    let (sizes, reps) = if bench.quick() {
        (vec![65_536usize], 3)
    } else {
        (vec![65_536usize, 1_000_000], 5)
    };

    let mut rows = Vec::new();
    for &n in &sizes {
        eprintln!("set algebra at {n} elements");
        rows.extend(bench_set("axiom", n, reps, AxiomSet::union_elementwise));
        rows.extend(bench_set("champ", n, reps, ChampSet::union_elementwise));
    }

    let note = "structural = lockstep node walk skipping Arc-pointer-equal subtrees; \
                element-wise = the documented per-element fallback the algebra traits default \
                to; divergent1pct = operand frozen then 1% of elements rewritten";
    bench.emit(
        &bench.header("axiom-setops-v1", None).str("note", note),
        &rows,
    );

    if bench.gate.is_some() {
        let min_diff = bench.knob("MIN_SPEEDUP", 10.0);
        let min_union = bench.knob("MIN_UNION_SPEEDUP", 2.5);
        let largest = sizes.iter().max().expect("sizes nonempty").to_string();
        let gated = [("n", largest.as_str()), ("shape", "divergent1pct")];
        let mut gate = Gate::default();
        for row in rows.iter().filter(|r| r.matches(&gated)) {
            let (op, speedup) = (row.get_str("op"), row.get_num("speedup"));
            let required = if op == "diff" { min_diff } else { min_union };
            gate.check(
                speedup >= required,
                format!(
                    "{} {op} on divergent1pct at {largest}: x{speedup:.2} (required \
                     x{required:.2})",
                    row.get_str("impl")
                ),
            );
        }
        gate.finish();
    }
}
