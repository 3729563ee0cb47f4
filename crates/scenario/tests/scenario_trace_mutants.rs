//! No-panic harness for the scenario trace files that `seqio scenario
//! replay` reads: 10k deterministic mutants of a trace go through
//! `ScenarioTrace::from_text`, and each must end in a trace or a
//! `scenario` error — never a panic. A trace that parses must also
//! survive serialize → parse unchanged.

#[path = "../../../tests/support/mutator.rs"]
mod mutator;

use std::panic::{catch_unwind, AssertUnwindSafe};

use mutator::Mutator;
use seqio_scenario::ScenarioTrace;
use seqio_simcore::{SeqioError, SimRng};

/// Two nodes, every clause kind and every access pattern, with a retire
/// and a re-injection on one node.
const TRACE: &str = "# seqio scenario trace v1
meta:name=mutants,nodes=2
inject:at=0,node=0,stream=0,disk=0,start=0,blocks=128,requests=400,pattern=seq
inject:at=0,node=0,stream=1,disk=1,start=8192,blocks=128,requests=400,pattern=near:0.1:64
inject:at=0,node=1,stream=0,disk=0,start=4096,blocks=64,requests=100,pattern=random:1048576
inject:at=250000000,node=1,stream=1,disk=1,start=0,blocks=128,requests=50,pattern=seq
retire:at=1500000000,node=0,stream=1
inject:at=1500000000,node=0,stream=2,disk=1,start=65536,blocks=128,requests=400,pattern=seq
retire:at=2000000000,node=1,stream=0
";

/// The trace format for the shared mutator. The edge cases are zero, small
/// ids, values at and past `u32::MAX`, `i64::MAX` and `u64::MAX`, and a
/// fraction.
const SCENARIO_TRACE: Mutator = Mutator {
    alphabet: b"0123456789:,=\n#.-+eE metanodsijcrlbkqup",
    edges: &[
        "0",
        "1",
        "2",
        "4294967295",
        "4294967296",
        "9223372036854775807",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999999",
        "0.5",
    ],
    drops_lines: true,
};

#[test]
fn scenario_trace_mutants_never_panic() {
    const MUTANTS: u64 = 10_000;
    assert_eq!(ScenarioTrace::from_text(TRACE).expect("the base trace parses").ops.len(), 7);
    let mut rng = SimRng::seed_from(0x5ce7_a210);
    let (mut not_utf8, mut rejected, mut parsed) = (0u64, 0u64, 0u64);
    let mut panics: Vec<String> = Vec::new();
    for _ in 0..MUTANTS {
        let bytes = SCENARIO_TRACE.mutant(TRACE, &mut rng);
        let Ok(text) = std::str::from_utf8(&bytes) else {
            not_utf8 += 1;
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| ScenarioTrace::from_text(text))) {
            Ok(Ok(trace)) => {
                let again = ScenarioTrace::from_text(&trace.to_text());
                assert_eq!(again.as_ref(), Ok(&trace), "`{text}` does not round-trip");
                parsed += 1;
            }
            Ok(Err(SeqioError::Component { component: "scenario", .. })) => rejected += 1,
            Ok(Err(e)) => panic!("`{text}` failed outside the scenario component: {e}"),
            Err(_) => panics.push(text.to_string()),
        }
    }
    assert!(panics.is_empty(), "{} mutant(s) panicked; first:\n{}", panics.len(), panics[0]);
    assert_eq!(not_utf8 + rejected + parsed, MUTANTS);
    println!("{rejected} rejected, {parsed} parsed, {not_utf8} not UTF-8");
    for (what, n) in [("rejected traces", rejected), ("parsed traces", parsed)] {
        assert!(n >= MUTANTS / 100, "only {n} {what} among {MUTANTS} mutants");
    }
}
