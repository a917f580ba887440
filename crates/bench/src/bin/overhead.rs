//! Per-tuple storage overhead (§1): "comparable multi-maps come with a mode
//! of 65.37 B overhead per stored key/value item, the most compressed
//! encoding in this paper reaches an optimum of 12.82 B".
//!
//! For every multi-map design, the modeled JVM *structure* bytes (total
//! minus boxed payload) divided by the tuple count, on the 50 %/50 %
//! `1:1`/`1:2` distribution, compressed-oops and 64-bit architectures.

use axiom::{AxiomFusedMultiMap, AxiomMultiMap};
use heapmodel::{JvmArch, JvmFootprint, LayoutPolicy};
use idiomatic::{ClojureMultiMap, NestedChampMultiMap, ScalaMultiMap};
use trie_common::ops::{MultiMapOps, TransientOps};
use workloads::build::multimap_transient;
use workloads::data::multimap_workload;
use workloads::Table;

fn overhead<M>(tuples: &[(u32, u32)], arch: &JvmArch, policy: &LayoutPolicy) -> f64
where
    M: MultiMapOps<u32, u32> + TransientOps<(u32, u32)> + JvmFootprint,
{
    let mm: M = multimap_transient(tuples);
    let fp = mm.jvm_bytes(arch, policy);
    fp.overhead_per_tuple(mm.tuple_count())
}

fn main() {
    let max_exp: u32 = paper_bench::report::knob("AXIOM_BENCH_MAX_EXP", 16);
    let sizes: Vec<usize> = (10..=max_exp).step_by(2).map(|e| 1usize << e).collect();

    println!("## Per-tuple storage overhead (bytes/tuple, structure only)");
    println!();
    println!("Workload: 50% 1:1 + 50% 1:2 tuples; JVM layout model.");
    println!();

    for arch in [JvmArch::COMPRESSED_OOPS, JvmArch::UNCOMPRESSED] {
        println!("### {} architecture", arch.label);
        println!();
        let mut table = Table::new(&[
            "size",
            "clojure",
            "scala",
            "champ-nested",
            "axiom",
            "axiom+fusion",
            "axiom+fusion+spec",
        ]);
        let mut last_row: Vec<f64> = Vec::new();
        for &size in &sizes {
            let w = multimap_workload(size, 11);
            let base = LayoutPolicy::BASELINE;
            let cols = vec![
                overhead::<ClojureMultiMap<u32, u32>>(&w.tuples, &arch, &base),
                overhead::<ScalaMultiMap<u32, u32>>(&w.tuples, &arch, &base),
                overhead::<NestedChampMultiMap<u32, u32>>(&w.tuples, &arch, &base),
                overhead::<AxiomMultiMap<u32, u32>>(&w.tuples, &arch, &base),
                overhead::<AxiomFusedMultiMap<u32, u32>>(&w.tuples, &arch, &base),
                overhead::<AxiomFusedMultiMap<u32, u32>>(
                    &w.tuples,
                    &arch,
                    &LayoutPolicy::FUSED_SPECIALIZED,
                ),
            ];
            table.row(
                std::iter::once(size.to_string())
                    .chain(cols.iter().map(|b| format!("{b:.2} B")))
                    .collect(),
            );
            last_row = cols;
        }
        println!("{}", table.render());
        if arch.label == "32-bit" && !last_row.is_empty() {
            println!("Paper reference points (32-bit, large sizes):");
            println!(
                "  idiomatic multi-maps   paper mode: 65.37 B   measured (clojure/scala): {:.2} / {:.2} B",
                last_row[0], last_row[1]
            );
            println!(
                "  best AXIOM encoding    paper optimum: 12.82 B  measured (fusion+spec): {:.2} B",
                last_row[5]
            );
            println!();
        }
    }
}
