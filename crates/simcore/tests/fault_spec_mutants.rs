//! No-panic harness for the `--faults` spec that `seqio run`, `sweep` and
//! `replay` accept: 10k deterministic mutants of a spec naming every fault
//! kind go through `FaultPlan::parse`, and each must end in a plan or a
//! `faults` error — never a panic.

#[path = "../../../tests/support/mutator.rs"]
mod mutator;

use std::panic::{catch_unwind, AssertUnwindSafe};

use mutator::Mutator;
use seqio_simcore::{FaultPlan, SeqioError, SimRng};

/// Every clause kind and optional field, one clause to a line (the parser
/// splits on `;` and trims each clause, so the newlines are whitespace).
const SPEC: &str = "straggler:disk=0,factor=4,from=1s,for=10s;
straggler:disk=3,factor=2.5;
errors:disk=0,rate=0.01;
badregion:disk=1,start=4096,blocks=8192,penalty=5ms;
retry:max=4,backoff=500us,timeout=250ms
";

/// The spec format for the shared mutator. The edge cases are zero, one,
/// the retry doubling cap, values at and past `u32::MAX`, `i64::MAX` and
/// `u64::MAX`, a fraction and an exponent.
const FAULT_SPEC: Mutator = Mutator {
    alphabet: b"0123456789;:,=\n.-+eE nsumtagrfoxbkdiy",
    edges: &[
        "0",
        "1",
        "20",
        "4294967295",
        "4294967296",
        "9223372036854775807",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999999",
        "0.5",
        "1e300",
    ],
    drops_lines: true,
};

#[test]
fn fault_spec_mutants_never_panic() {
    const MUTANTS: u64 = 10_000;
    assert!(!FaultPlan::parse(SPEC).expect("the base spec parses").is_empty());
    let mut rng = SimRng::seed_from(0xfa_017_5ec);
    let (mut not_utf8, mut rejected, mut parsed) = (0u64, 0u64, 0u64);
    let mut panics: Vec<String> = Vec::new();
    for _ in 0..MUTANTS {
        let bytes = FAULT_SPEC.mutant(SPEC, &mut rng);
        let Ok(text) = std::str::from_utf8(&bytes) else {
            not_utf8 += 1;
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| FaultPlan::parse(text))) {
            Ok(Ok(_)) => parsed += 1,
            Ok(Err(SeqioError::Component { component: "faults", .. })) => rejected += 1,
            Ok(Err(e)) => panic!("`{text}` failed outside the faults component: {e}"),
            Err(_) => panics.push(text.to_string()),
        }
    }
    assert!(panics.is_empty(), "{} mutant(s) panicked; first:\n{}", panics.len(), panics[0]);
    assert_eq!(not_utf8 + rejected + parsed, MUTANTS);
    println!("{rejected} rejected, {parsed} parsed, {not_utf8} not UTF-8");
    for (what, n) in [("rejected specs", rejected), ("parsed plans", parsed)] {
        assert!(n >= MUTANTS / 100, "only {n} {what} among {MUTANTS} mutants");
    }
}
