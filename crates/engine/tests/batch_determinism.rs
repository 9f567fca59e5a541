//! Regression tests for the batch engine's two contracts: per-net failure
//! isolation and submission-order determinism across worker counts.

use rlc_engine::{Batch, Engine, EngineError, SynthBatch};
use rlc_tree::{topology, RlcSection};
use rlc_units::{Capacitance, Inductance, Resistance};

fn section(r: f64, l_nh: f64, c_pf: f64) -> RlcSection {
    RlcSection::new(
        Resistance::from_ohms(r),
        Inductance::from_nanohenries(l_nh),
        Capacitance::from_picofarads(c_pf),
    )
}

/// A mixed corpus with a malformed netlist deck in the middle.
fn corpus_with_poison() -> Batch {
    let mut batch = Batch::new();
    batch.push_tree("t0", topology::balanced_tree(3, 2, section(20.0, 2.0, 0.3)));
    batch.push_deck(
        "t1",
        "R1 in n1 25\nC1 n1 0 0.5p\nR2 n1 n2 30\nC2 n2 0 0.4p\n",
    );
    batch.push_deck("poison", "R1 in n1 25\nC1 n1 0 banana\n");
    let (line, _) = topology::single_line(9, section(12.0, 1.5, 0.25));
    batch.push_tree("t3", line);
    batch.push_deck(
        "t4",
        "R1 in n1 40\nL1 n1 n1x 1n\nC1 n1x 0 0.2p\nR2 n1x n2 10\nC2 n2 0 0.1p\n",
    );
    batch
}

#[test]
fn malformed_net_mid_corpus_is_isolated_in_order() {
    let report = Engine::with_workers(4).run(&corpus_with_poison());
    assert_eq!(report.nets.len(), 5);

    // Every other net still produced a result, in submission order.
    let names: Vec<&str> = report
        .nets
        .iter()
        .map(|slot| match slot {
            Ok(t) => t.name.as_str(),
            Err(e) => e.net(),
        })
        .collect();
    assert_eq!(names, vec!["t0", "t1", "poison", "t3", "t4"]);

    for (i, slot) in report.nets.iter().enumerate() {
        if i == 2 {
            let err = slot.as_ref().expect_err("poison deck must fail");
            assert!(matches!(err, EngineError::Netlist { .. }), "{err}");
            assert!(err.to_string().contains("poison"));
        } else {
            let timing = slot.as_ref().unwrap_or_else(|e| panic!("net {i}: {e}"));
            assert!(!timing.sinks.is_empty(), "net {i} has sinks");
            assert!(timing.critical().is_some());
        }
    }
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let reference = Engine::with_workers(1).run(&corpus_with_poison());
    let ref_json = reference.to_json();
    for workers in [2, 3, 8] {
        let report = Engine::with_workers(workers).run(&corpus_with_poison());
        assert_eq!(report, reference, "{workers} workers: results differ");
        assert_eq!(
            report.to_json(),
            ref_json,
            "{workers} workers: JSON differs"
        );
    }
}

/// A corpus interleaving healthy nets with injected faults: NaN / ∞ /
/// negative section values (each a distinct malformed-deck shape) and one
/// net that panics on the worker.
fn corpus_with_injected_faults() -> Batch {
    let mut batch = Batch::new();
    batch.push_tree(
        "ok0",
        topology::balanced_tree(3, 2, section(18.0, 2.5, 0.35)),
    );
    batch.push_deck("nan-section", "R1 in n1 NaN\nC1 n1 0 0.5p\n");
    let (line, _) = topology::single_line(7, section(14.0, 1.2, 0.2));
    batch.push_tree("ok1", line);
    batch.push_deck("inf-section", "R1 in n1 1e999\nC1 n1 0 0.5p\n");
    batch.push_deck("neg-section", "R1 in n1 25\nC1 n1 0 -0.5p\n");
    batch.push_panicking("worker-panic", "injected worker panic");
    batch.push_deck(
        "ok2",
        "R1 in n1 25\nL1 n1 n1x 2n\nC1 n1x 0 0.4p\nR2 n1x n2 15\nC2 n2 0 0.3p\n",
    );
    batch
}

#[test]
fn injected_faults_are_typed_and_reports_stay_byte_identical() {
    let batch = corpus_with_injected_faults();
    let reference = Engine::with_workers(1).run(&batch);
    assert_eq!(reference.nets.len(), 7);

    // Every fault lands in its own slot with the right EngineError type…
    for (slot, expect_netlist) in [(1, true), (3, true), (4, true)] {
        let err = reference.nets[slot].as_ref().expect_err("faulted deck");
        assert!(
            matches!(err, EngineError::Netlist { .. }) == expect_netlist,
            "slot {slot}: {err}"
        );
    }
    let err = reference.nets[5].as_ref().expect_err("panicking net");
    assert!(
        matches!(err, EngineError::Panicked { message, .. } if message == "injected worker panic"),
        "{err}"
    );
    // …while every healthy sibling is unaffected.
    for slot in [0, 2, 6] {
        let timing = reference.nets[slot]
            .as_ref()
            .unwrap_or_else(|e| panic!("healthy net {slot} contaminated: {e}"));
        assert!(!timing.sinks.is_empty());
    }

    // And the report is byte-identical at 1/2/4/8 workers.
    let ref_json = reference.to_json();
    for workers in [2, 4, 8] {
        let report = Engine::with_workers(workers).run(&batch);
        assert_eq!(report, reference, "{workers} workers: results differ");
        assert_eq!(
            report.to_json(),
            ref_json,
            "{workers} workers: JSON differs"
        );
    }
}

#[test]
fn auto_sized_engine_matches_single_worker() {
    let batch = corpus_with_poison();
    assert_eq!(
        Engine::new().run(&batch).to_json(),
        Engine::with_workers(1).run(&batch).to_json(),
    );
}

#[test]
fn file_corpus_from_dir_is_sorted_and_isolated() {
    let dir = std::env::temp_dir().join(format!("rlc-engine-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    // Written out of order on purpose; from_dir must sort by file name.
    std::fs::write(dir.join("b.sp"), "R1 in n1 25\nC1 n1 0 0.5p\n").unwrap();
    std::fs::write(dir.join("c.sp"), "R1 in n1 nope\n").unwrap();
    std::fs::write(
        dir.join("a.sp"),
        "R1 in n1 10\nL1 n1 n1x 2n\nC1 n1x 0 0.3p\n",
    )
    .unwrap();
    std::fs::write(dir.join("ignored.txt"), "not a netlist").unwrap();

    let batch = Batch::from_dir(&dir).expect("readable dir");
    assert_eq!(batch.len(), 3, "only .sp files are picked up");
    let report = Engine::with_workers(2).run(&batch);
    let outcomes: Vec<(String, bool)> = report
        .nets
        .iter()
        .map(|slot| match slot {
            Ok(t) => (t.name.clone(), true),
            Err(e) => (e.net().to_owned(), false),
        })
        .collect();
    assert!(outcomes[0].0.ends_with("a.sp") && outcomes[0].1);
    assert!(outcomes[1].0.ends_with("b.sp") && outcomes[1].1);
    assert!(outcomes[2].0.ends_with("c.sp") && !outcomes[2].1);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn from_dir_partitions_decks_by_their_cards_up_to_end() {
    let dir = std::env::temp_dir().join(format!("rlc-engine-grammar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let netlist = "R1 in n1 25\nC1 n1 0 0.5p\n";
    std::fs::write(dir.join("a.sp"), netlist).unwrap();
    // A `.lib` card after `.end` is never read: this is a netlist.
    let past_end = format!("{netlist}.end\n.lib b r=100 cin=1f tin=1p\n");
    std::fs::write(dir.join("b.sp"), past_end).unwrap();
    let synth = format!("{netlist}.lib b r=100 cin=1f tin=1p\n.end\n");
    std::fs::write(dir.join("c.sp"), synth).unwrap();

    let names = |names: Vec<&str>| -> Vec<String> {
        names
            .iter()
            .map(|n| n.rsplit(['/', '\\']).next().unwrap_or(n).to_owned())
            .collect()
    };
    let batch = Batch::from_dir(&dir).expect("readable dir");
    assert_eq!(names(batch.names().collect()), ["a.sp", "b.sp"]);
    let synth = SynthBatch::from_dir(&dir).expect("readable dir");
    assert_eq!(names(synth.names().collect()), ["c.sp"]);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn batch_scales_to_hundreds_of_nets() {
    let mut batch = Batch::new();
    for i in 0..300 {
        // Vary the sections so every net has a distinct delay.
        let s = section(10.0 + i as f64, 1.0, 0.2 + 0.001 * i as f64);
        batch.push_tree(format!("net{i:03}"), topology::balanced_tree(4, 2, s));
    }
    let solo = Engine::with_workers(1).run(&batch);
    let pooled = Engine::with_workers(8).run(&batch);
    assert_eq!(solo.nets.len(), 300);
    assert_eq!(solo, pooled);
    for (i, slot) in solo.nets.iter().enumerate() {
        let t = slot.as_ref().expect("all analyzable");
        assert_eq!(t.name, format!("net{i:03}"), "slot {i} out of order");
    }
}
