//! Differential coverage for trace-driven workloads (`AccessPattern::Trace`):
//! the committed sample corpus must round-trip from the textual dump through
//! `lnuca ingest` encoding and replay bit-identically under both engines.

use lnuca_sim::configs::{self, HierarchyKind};
use lnuca_verify::harness::run_differential_spec_both_engines;
use lnuca_workloads::{trace, TraceData};

/// Absolute path of the committed sample dump / corpus, independent of the
/// test runner's working directory.
fn sample_path(file: &str) -> String {
    format!("{}/../../scenarios/traces/{file}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn committed_corpus_matches_its_textual_dump() {
    // The committed .lnt is exactly what `lnuca ingest` produces from the
    // committed .txt — byte for byte, so CI's re-ingestion can `cmp` them.
    let text = std::fs::read_to_string(sample_path("sample.txt")).expect("sample dump reads");
    let records = trace::ingest_text(&text).expect("the committed dump ingests");
    let encoded = trace::encode(&records).expect("ingested records encode");
    let committed = std::fs::read(sample_path("sample.lnt")).expect("sample corpus reads");
    assert_eq!(encoded, committed, "scenarios/traces/sample.lnt is stale; re-run `lnuca ingest`");

    // And the corpus decodes back to the very records the dump spells out.
    let data = TraceData::from_bytes(committed).expect("the committed corpus loads");
    assert_eq!(data.decode_all().expect("corpus decodes"), records);
}

#[test]
fn trace_replay_passes_the_differential_oracle_under_both_engines() {
    let profile = trace::trace_profile(&sample_path("sample.lnt"));
    for spec in [
        HierarchyKind::Conventional(configs::conventional()).to_spec(),
        HierarchyKind::LNucaL3(configs::lnuca_hierarchy(2)).to_spec(),
    ] {
        let report = run_differential_spec_both_engines(&spec, &profile, 6_000, 1)
            .expect("trace replay matches the reference model under both engines");
        assert!(report.accesses > 0, "the replay issued memory operations");
    }
}
