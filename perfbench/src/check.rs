//! Output checks. Every check returns an error instead of panicking, so a
//! wrong op is counted as failed and the run still reports.

use ses_metrics::JsonValue;
use ses_serve::Response;

/// Byte-for-byte equality, naming the first differing byte.
pub fn same_bytes(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what}: {} bytes differ from the expected {} at byte {at}",
        got.len(),
        want.len()
    ))
}

/// Equality of an exact count with its expected value.
pub fn same_count(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected {want}"))
    }
}

/// The outcome counts of a campaign sum to its injection total.
pub fn outcomes_sum_to(what: &str, counts: &[u32], injections: u32) -> Result<(), String> {
    let sum: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    same_count(&format!("{what} outcome total"), sum, u64::from(injections))
}

/// A served response: status 200, the expected `X-Cache` verdict, and a
/// body that parses as a schema-versioned artifact at `level`.
pub fn served(what: &str, resp: &Response, cache: &str, level: &str) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("{what}: status {}", resp.status));
    }
    if resp.header("x-cache") != Some(cache) {
        return Err(format!(
            "{what}: X-Cache {:?}, expected {cache}",
            resp.header("x-cache")
        ));
    }
    let text = std::str::from_utf8(&resp.body).map_err(|_| format!("{what}: body is not UTF-8"))?;
    let doc = JsonValue::parse(text).map_err(|e| format!("{what}: body does not parse: {e}"))?;
    match doc.get("telemetry").and_then(JsonValue::as_str) {
        Some(l) if l == level => Ok(()),
        other => Err(format!(
            "{what}: telemetry level {other:?}, expected {level}"
        )),
    }
}

/// A cache hit repeats its job's miss bytes exactly.
pub fn hit_matches_miss(what: &str, hit: &Response, miss_body: &str) -> Result<(), String> {
    served(what, hit, "hit", "summary")?;
    same_bytes(
        what,
        std::str::from_utf8(&hit.body).unwrap_or(""),
        miss_body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, cache: &str, body: &str) -> Response {
        Response {
            status,
            headers: vec![("x-cache".to_string(), cache.to_string())],
            body: body.as_bytes().to_vec(),
        }
    }

    const BODY: &str =
        "{\n  \"schema_version\": 1,\n  \"telemetry\": \"summary\",\n  \"injections\": 300\n}\n";

    #[test]
    fn identical_bytes_pass() {
        assert!(same_bytes("suite", BODY, BODY).is_ok());
        assert!(served("cold", &response(200, "miss", BODY), "miss", "summary").is_ok());
        assert!(hit_matches_miss("hit", &response(200, "hit", BODY), BODY).is_ok());
        assert!(outcomes_sum_to("crafty", &[157, 0, 41, 36, 63, 3, 0], 300).is_ok());
    }

    #[test]
    fn a_corrupted_body_is_a_failure() {
        let corrupted = BODY.replace("300", "301");
        let err = same_bytes("suite", &corrupted, BODY).unwrap_err();
        assert!(err.contains("at byte"), "{err}");
        assert!(hit_matches_miss("hit", &response(200, "hit", &corrupted), BODY).is_err());
        let truncated = &BODY[..BODY.len() - 3];
        assert!(served("cold", &response(200, "miss", truncated), "miss", "summary").is_err());
        assert!(same_bytes("suite", truncated, BODY).is_err());
    }

    #[test]
    fn a_changed_count_is_a_failure() {
        assert!(same_count("arch.instructions", 6_100_001, 6_100_000).is_err());
        assert!(outcomes_sum_to("crafty", &[157, 0, 41, 36, 63, 3, 1], 300).is_err());
    }

    #[test]
    fn a_seeded_defect_makes_the_run_incorrect() {
        let mut report = crate::report::Report::default();
        report.op(hit_matches_miss("hit", &response(200, "hit", BODY), BODY));
        assert!(report.to_json_line().starts_with("{\"correct\": true,"));
        let corrupted = BODY.replace("summary", "summarx");
        report.op(hit_matches_miss(
            "hit",
            &response(200, "hit", &corrupted),
            BODY,
        ));
        report.op(same_count("serve.hits", 799, 800));
        assert_eq!((report.attempted(), report.failed()), (3, 2));
        assert!(report.to_json_line().starts_with("{\"correct\": false,"));
    }

    #[test]
    fn a_wrong_status_or_cache_verdict_is_a_failure() {
        assert!(served("cold", &response(500, "miss", BODY), "miss", "summary").is_err());
        assert!(served("cold", &response(200, "hit", BODY), "miss", "summary").is_err());
        assert!(served("full", &response(200, "miss", BODY), "miss", "full").is_err());
    }
}
