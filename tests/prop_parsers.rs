//! The operator-input parsers never panic, and every value one accepts
//! obeys its range rule.
//!
//! Covers `RoutingMode::parse`, `DecisionSource::parse` and every
//! parser `recluster_sim::knobs` reads a `RECLUSTER_*` variable with.
//! Arbitrary strings almost never form a valid value, so a second
//! generator fills the knob grammars' own shapes with random numbers
//! and near-miss tokens; `shaped_values_are_both_accepted_and_rejected`
//! checks that it reaches both sides of every parser.

use proptest::prelude::*;
use recluster_core::DecisionSource;
use recluster_overlay::{RoutingMode, SummaryMode};
use recluster_sim::knobs::{
    parse_crashes, parse_flag, parse_fraction, parse_partition, parse_tick_range, parse_u64,
};
use recluster_types::seeded_rng;

/// Runs every parser on `s` and checks each accepted value's range rule.
/// A panicking parser fails the test by unwinding out of it.
fn check_all(s: &str) -> Result<(), TestCaseError> {
    let _ = parse_u64(s);
    let _ = parse_flag(s);
    if let Some(RoutingMode::Routed(SummaryMode::TopK(k))) = RoutingMode::parse(s) {
        prop_assert!(k >= 1, "lossy summary of {k} terms from {s:?}");
    }
    if let Some(DecisionSource::Observed { decay }) = DecisionSource::parse(s) {
        prop_assert!((0.0..1.0).contains(&decay), "decay {decay} from {s:?}");
    }
    for max in [0.999, 1.0] {
        if let Some(f) = parse_fraction(s, max) {
            prop_assert!((0.0..=max).contains(&f), "fraction {f} > {max} from {s:?}");
        }
    }
    if let Some((min, max)) = parse_tick_range(s) {
        prop_assert!(min <= max, "tick range {min}..{max} from {s:?}");
    }
    if let Some((_, start, heal)) = parse_partition(s) {
        prop_assert!(start < heal, "partition {start}..{heal} from {s:?}");
    }
    for c in parse_crashes(s).unwrap_or_default() {
        prop_assert!(c.down < c.up, "crash {}..{} from {s:?}", c.down, c.up);
    }
    Ok(())
}

/// The knob grammars' shapes; `{a}`, `{b}` and `{c}` are filled in.
const SHAPES: &[&str] = &[
    "{a}",
    "{a}..{b}",
    "{a}.{b}",
    "bisect:{c}@{a}..{b}",
    "isolate:{c}@{a}..{b}",
    "{c}:{a}@{a}..{b}",
    "{c}@{a}..{b}",
    "{c}@{a}..{b},{b}@{a}..{c}",
    "observed:{a}",
    "lossy:{a}",
];

/// Near misses and edge values for the holes.
const TOKENS: &[&str] = &[
    "",
    "0",
    " 3 ",
    "-1",
    "0.5",
    "0.999",
    "1.0",
    "1e-3",
    "-0.0",
    "NaN",
    "inf",
    "true",
    "FALSE",
    "..",
    "@",
    "18446744073709551615",
    "18446744073709551616",
];

/// A knob-shaped value: a shape whose holes hold small numbers (in
/// either order) or tokens.
fn shaped() -> impl Strategy<Value = String> {
    let hole = || {
        prop_oneof![
            (0u64..40).prop_map(|n| n.to_string()),
            (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        ]
    };
    (0..SHAPES.len(), hole(), hole(), hole()).prop_map(|(shape, a, b, c)| {
        SHAPES[shape]
            .replace("{a}", &a)
            .replace("{b}", &b)
            .replace("{c}", &c)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic(s in ".{0,40}") {
        check_all(&s)?;
    }

    #[test]
    fn knob_alphabet_strings_never_panic(s in "[a-z0-9:@.,_-]{0,24}") {
        check_all(&s)?;
    }

    #[test]
    fn shaped_values_obey_their_range_rules(s in shaped()) {
        check_all(&s)?;
    }
}

/// The range-rule property above means something only if the shaped
/// generator makes every parser both accept and reject.
#[test]
fn shaped_values_are_both_accepted_and_rejected() {
    type Accepts = fn(&str) -> bool;
    let parsers: [(&str, Accepts); 8] = [
        ("u64", |s| parse_u64(s).is_some()),
        ("flag", |s| parse_flag(s).is_some()),
        ("fraction", |s| parse_fraction(s, 1.0).is_some()),
        ("tick range", |s| parse_tick_range(s).is_some()),
        ("partition", |s| parse_partition(s).is_some()),
        ("crashes", |s| parse_crashes(s).is_some()),
        ("routing", |s| RoutingMode::parse(s).is_some()),
        ("decisions", |s| DecisionSource::parse(s).is_some()),
    ];
    let strategy = shaped();
    let mut rng = seeded_rng(2008);
    let mut accepted = [0usize; 8];
    let draws = 4_000;
    for _ in 0..draws {
        let s = strategy.generate(&mut rng);
        for (n, (_, accepts)) in accepted.iter_mut().zip(&parsers) {
            *n += usize::from(accepts(&s));
        }
    }
    for ((name, _), n) in parsers.iter().zip(accepted) {
        assert!(0 < n && n < draws, "{name} accepted {n} of {draws}");
    }
}
