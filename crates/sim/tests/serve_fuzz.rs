//! Fuzzed serve lines: observation lines are bytes from outside and must
//! never cause a panic. Valid lines for the tiny scenario are truncated,
//! have characters flipped or inserted, lose or repeat a field, get an
//! array of the wrong length, or have one number replaced by an edge
//! value (`-1`, `-0`, `1e305`, `1e-320`, `2^53 + 1`) — every structural
//! mutant, and random byte-level ones. Each mutant sits
//! between two valid lines of a session with a generous error budget, and
//! every non-empty input line must produce exactly one `reject` event or
//! one stepped slot.

use greencell_sim::{run_serve, Scenario, ServeConfig, StopReason};
use proptest::prelude::*;

/// The tiny scenario: 5 nodes, 2 sessions, 2 bands.
const NODES: usize = 5;
const SESSIONS: usize = 2;
const BANDS: usize = 2;

/// Edge values a number is replaced with.
const EDGE_NUMBERS: [&str; 5] = ["-1", "-0", "1e305", "1e-320", "9007199254740993"];

/// Characters flipped in or inserted: JSON structure, number syntax, a
/// letter, a space, and one byte that is not UTF-8.
const ALPHABET: &[u8] = b"{}[]:,\".-+e0159tfn \xff";

/// One observation line as its `(key, value)` fields, every optional field
/// present.
fn fields(t: usize) -> Vec<(String, Vec<String>)> {
    let numbers = |n: usize, f: &dyn Fn(usize) -> String| (0..n).map(f).collect();
    vec![
        (
            "renewable_w".into(),
            numbers(NODES, &|i| format!("{}.5", (i + t) % 4)),
        ),
        (
            "grid".into(),
            numbers(NODES, &|i| (!(i + t).is_multiple_of(3)).to_string()),
        ),
        (
            "demand".into(),
            numbers(SESSIONS, &|s| (1 + (s + t) % 3).to_string()),
        ),
        ("bands_mhz".into(), numbers(BANDS, &|b| format!("1.{b}"))),
        ("price".into(), vec![format!("1.{t}")]),
        (
            "available".into(),
            numbers(NODES, &|i| (i != 3).to_string()),
        ),
    ]
}

fn render(fields: &[(String, Vec<String>)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, values)| {
            if key == "price" {
                format!("\"{key}\":{}", values.join(","))
            } else {
                format!("\"{key}\":[{}]", values.join(","))
            }
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Every structural mutant of a valid line: each field dropped, repeated,
/// one entry short and one entry long, and each numeric entry replaced by
/// each edge value.
fn field_mutants() -> Vec<String> {
    let base = fields(1);
    let mut mutants = Vec::new();
    for k in 0..base.len() {
        let mut f = base.clone();
        f.remove(k);
        mutants.push(render(&f));
        let mut f = base.clone();
        f.push(base[k].clone());
        mutants.push(render(&f));
        let mut f = base.clone();
        f[k].1.pop();
        mutants.push(render(&f));
        let mut f = base.clone();
        f[k].1.push(base[k].1[0].clone());
        mutants.push(render(&f));
    }
    // Numeric fields only: renewable_w, demand, bands_mhz, price.
    for k in [0, 2, 3, 4] {
        for at in 0..base[k].1.len() {
            for edge in EDGE_NUMBERS {
                let mut f = base.clone();
                f[k].1[at] = edge.to_string();
                mutants.push(render(&f));
            }
        }
    }
    mutants
}

/// Byte-level mutation `op` of a valid line: 0 truncates at `pos`, 1
/// replaces the byte at `pos` with `ALPHABET[ch]`, 2 inserts it there.
fn mutate_bytes(op: u8, pos: usize, ch: usize) -> Vec<u8> {
    let mut line = render(&fields(1)).into_bytes();
    let len = line.len();
    let at = pos % (len + 1);
    let c = ALPHABET[ch % ALPHABET.len()];
    match op {
        0 => line.truncate(at),
        1 => line[at.min(len - 1)] = c,
        _ => line.insert(at, c),
    }
    line
}

/// Serves a valid line, `mutant`, and another valid line; every non-empty
/// line must come out as one reject or one stepped slot.
fn serve_around(mutant: &[u8]) -> Result<(), TestCaseError> {
    let mut input = render(&fields(0)).into_bytes();
    input.push(b'\n');
    input.extend_from_slice(mutant);
    input.push(b'\n');
    input.extend_from_slice(render(&fields(2)).as_bytes());
    input.push(b'\n');
    let lines = input
        .split(|&b| b == b'\n')
        .filter(|l| !l.trim_ascii().is_empty())
        .count();

    let mut scenario = Scenario::tiny(17);
    scenario.users = 4;
    scenario.sessions = SESSIONS;
    let config = ServeConfig {
        snapshot_every: 0,
        status_every: 0,
        error_budget: usize::MAX,
        state_dir: None,
    };
    let mut events = Vec::new();
    let summary = run_serve(&scenario, &config, input.as_slice(), &mut events)
        .map_err(|e| TestCaseError::fail(format!("session failed: {e}")))?;
    let events = String::from_utf8(events).expect("events are UTF-8");
    let rejects = events.matches("\"event\":\"reject\"").count();
    prop_assert_eq!(summary.stop_reason, StopReason::InputClosed);
    prop_assert_eq!(summary.rejected_lines, rejects);
    prop_assert_eq!(
        summary.slots_stepped + rejects,
        lines,
        "mutant {:?}\nevents:\n{}",
        String::from_utf8_lossy(mutant),
        events
    );
    Ok(())
}

#[test]
fn valid_lines_step_every_slot() {
    let line = render(&fields(1));
    serve_around(line.as_bytes()).expect("three slots");
}

#[test]
fn field_mutants_are_rejected_or_stepped() {
    let mutants = field_mutants();
    assert_eq!(mutants.len(), 6 * 4 + (NODES + SESSIONS + BANDS + 1) * 5);
    for mutant in &mutants {
        serve_around(mutant.as_bytes()).unwrap_or_else(|e| panic!("{e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_mutants_are_rejected_or_stepped(
        op in 0u8..3,
        pos in any::<u64>(),
        ch in 0usize..64,
    ) {
        let pos = usize::try_from(pos % 4096).expect("fits");
        serve_around(&mutate_bytes(op, pos, ch))?;
    }
}
