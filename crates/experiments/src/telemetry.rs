//! Validator for the `earsim-telemetry:` JSON line every `earsim` process
//! prints to stderr (`earsim verify-telemetry FILE`).
//!
//! The JSON reader is hand-rolled so the check needs no parser crate: CI
//! must fail on a malformed or schema-violating telemetry line while the
//! workspace stays dependency-free.

/// Minimal JSON value for validation purposes.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| self.err("bad \\u"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            self.i += 4;
                            s.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so valid).
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    match std::str::from_utf8(&self.b[start..self.i]) {
                        Ok(frag) => s.push_str(frag),
                        Err(_) => return Err(self.err("invalid utf-8")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    let v = self.value()?;
                    kv.push((k, v));
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.ws();
        if self.i != self.b.len() {
            return Err(self.err("trailing data"));
        }
        Ok(v)
    }
}

/// Counter fields the nested `netd` telemetry object must carry.
const TELEMETRY_NETD_COUNTERS: [&str; 7] = [
    "accepted",
    "rejected",
    "timed_out",
    "retried",
    "requests",
    "decode_errors",
    "batched_flushes",
];

/// Counter fields the nested `cluster` telemetry object must carry
/// (besides the `level_reports` array, validated separately).
const TELEMETRY_CLUSTER_COUNTERS: [&str; 3] = ["daemons", "tree_depth", "batched_flushes"];

/// Entries the `ufs.ratio_steps` array must carry: one per supported
/// uncore domain index.
const TELEMETRY_UFS_DOMAINS: usize = 4;

/// Counter fields the nested `powercap` telemetry object must carry
/// (all-zero when no capped scenario ran in the process).
const TELEMETRY_POWERCAP_COUNTERS: [&str; 5] = [
    "caps_pushed",
    "throttle_events",
    "rebalances",
    "jobs_admitted",
    "jobs_completed",
];

/// Validates one `earsim-telemetry:` JSON payload (the part after the
/// prefix): well-formed, the right schema tag, the flat engine fields,
/// every nested netd counter present as a non-negative integer, and the
/// nested cluster object (all-zero when no cluster scenario ran) with its
/// per-level report array, the nested `ufs` object with its fixed-width
/// per-domain ratio-step array, and the nested `powercap` object with the
/// job-stream and RAPL enforcement counters.
pub fn validate_telemetry_json(text: &str) -> Result<(), String> {
    let root = Parser::new(text).parse()?;
    match root.get("schema") {
        Some(Json::Str(s)) if s == crate::engine::TELEMETRY_SCHEMA => {}
        Some(Json::Str(s)) => {
            return Err(format!(
                "wrong schema '{s}', expected '{}'",
                crate::engine::TELEMETRY_SCHEMA
            ))
        }
        _ => return Err("missing string field 'schema'".into()),
    }
    let counter = |obj: &Json, key: &str| -> Result<(), String> {
        match obj.get(key) {
            Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 && v.fract() == 0.0 => Ok(()),
            _ => Err(format!("field '{key}' must be a non-negative integer")),
        }
    };
    for key in ["engine_runs", "tasks", "cal_hits", "result_hits"] {
        counter(&root, key)?;
    }
    let netd = root
        .get("netd")
        .ok_or_else(|| "missing object field 'netd'".to_string())?;
    if !matches!(netd, Json::Obj(_)) {
        return Err("'netd' is not an object".into());
    }
    for key in TELEMETRY_NETD_COUNTERS {
        counter(netd, key).map_err(|e| format!("netd: {e}"))?;
    }
    let cluster = root
        .get("cluster")
        .ok_or_else(|| "missing object field 'cluster'".to_string())?;
    if !matches!(cluster, Json::Obj(_)) {
        return Err("'cluster' is not an object".into());
    }
    for key in TELEMETRY_CLUSTER_COUNTERS {
        counter(cluster, key).map_err(|e| format!("cluster: {e}"))?;
    }
    match cluster.get("level_reports") {
        Some(Json::Arr(items)) => {
            for (i, v) in items.iter().enumerate() {
                match v {
                    Json::Num(n) if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 => {}
                    _ => {
                        return Err(format!(
                            "cluster: level_reports[{i}] must be a non-negative integer"
                        ))
                    }
                }
            }
        }
        _ => return Err("cluster: missing array field 'level_reports'".into()),
    }
    let ufs = root
        .get("ufs")
        .ok_or_else(|| "missing object field 'ufs'".to_string())?;
    if !matches!(ufs, Json::Obj(_)) {
        return Err("'ufs' is not an object".into());
    }
    counter(ufs, "max_domains").map_err(|e| format!("ufs: {e}"))?;
    match ufs.get("ratio_steps") {
        Some(Json::Arr(items)) => {
            if items.len() != TELEMETRY_UFS_DOMAINS {
                return Err(format!(
                    "ufs: ratio_steps must carry {TELEMETRY_UFS_DOMAINS} entries, got {}",
                    items.len()
                ));
            }
            for (i, v) in items.iter().enumerate() {
                match v {
                    Json::Num(n) if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 => {}
                    _ => {
                        return Err(format!(
                            "ufs: ratio_steps[{i}] must be a non-negative integer"
                        ))
                    }
                }
            }
        }
        _ => return Err("ufs: missing array field 'ratio_steps'".into()),
    }
    let sweep = root
        .get("sweep")
        .ok_or_else(|| "missing object field 'sweep'".to_string())?;
    if !matches!(sweep, Json::Obj(_)) {
        return Err("'sweep' is not an object".into());
    }
    for key in ["cells", "cache_hits"] {
        counter(sweep, key).map_err(|e| format!("sweep: {e}"))?;
    }
    match sweep.get("fit_residual_max") {
        Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 => {}
        _ => return Err("sweep: 'fit_residual_max' must be a non-negative number".into()),
    }
    let powercap = root
        .get("powercap")
        .ok_or_else(|| "missing object field 'powercap'".to_string())?;
    if !matches!(powercap, Json::Obj(_)) {
        return Err("'powercap' is not an object".into());
    }
    for key in TELEMETRY_POWERCAP_COUNTERS {
        counter(powercap, key).map_err(|e| format!("powercap: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = Parser::new(r#"{"a": [1, -2.5e3, "x\n\"A"], "b": {"c": null}}"#)
            .parse()
            .unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Str("x\n\"A".into())
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_json() {
        // Truncated object, empty input, unclosed array, trailing data: the
        // parser itself must refuse each, before any field is looked at.
        for text in ["{", "", "[1, 2", "{\"a\": 1} trailing"] {
            assert!(Parser::new(text).parse().is_err(), "parsed {text:?}");
            assert!(validate_telemetry_json(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn telemetry_json_validates() {
        let sample = format!(
            "{{\"schema\":\"{}\",\"engine_runs\":1,\"jobs\":2,\"tasks\":3,\
             \"tasks_failed\":0,\"failed_cells\":[],\"wall_s\":1.0,\
             \"serial_estimate_s\":2.0,\"speedup\":2.00,\"cal_hits\":4,\
             \"cal_misses\":0,\"result_hits\":5,\"result_misses\":1,\
             \"result_invalidations\":0,\"netd\":{{\"accepted\":2,\
             \"rejected\":0,\"timed_out\":1,\"retried\":3,\"requests\":10,\
             \"decode_errors\":0,\"batched_flushes\":4}},\
             \"cluster\":{{\"daemons\":64,\"tree_depth\":2,\
             \"level_reports\":[640,40],\"batched_flushes\":4}},\
             \"ufs\":{{\"max_domains\":2,\"ratio_steps\":[7,3,0,0]}},\
             \"sweep\":{{\"cells\":40,\"cache_hits\":13,\
             \"fit_residual_max\":0.031200}},\
             \"powercap\":{{\"caps_pushed\":8,\"throttle_events\":2,\
             \"rebalances\":3,\"jobs_admitted\":5,\"jobs_completed\":5}}}}",
            crate::engine::TELEMETRY_SCHEMA
        );
        assert_eq!(validate_telemetry_json(&sample), Ok(()));
        // The real emitter must satisfy its own validator.
        if let Some(json) = crate::engine::process_summary_json() {
            assert_eq!(validate_telemetry_json(&json), Ok(()));
        }
        // Rejections: wrong schema, missing netd, non-integer counter,
        // missing cluster object, non-integer level report.
        assert!(validate_telemetry_json(&sample.replace("/v6", "/v1"))
            .unwrap_err()
            .contains("wrong schema"));
        assert!(
            validate_telemetry_json(&sample.replace("\"netd\"", "\"metd\""))
                .unwrap_err()
                .contains("netd")
        );
        assert!(
            validate_telemetry_json(&sample.replace("\"retried\":3", "\"retried\":3.5"))
                .unwrap_err()
                .contains("retried")
        );
        assert!(
            validate_telemetry_json(&sample.replace("\"cluster\"", "\"clusterx\""))
                .unwrap_err()
                .contains("cluster")
        );
        assert!(
            validate_telemetry_json(&sample.replace("[640,40]", "[640,40.5]"))
                .unwrap_err()
                .contains("level_reports[1]")
        );
        assert!(
            validate_telemetry_json(&sample.replace("\"ufs\"", "\"ufsx\""))
                .unwrap_err()
                .contains("ufs")
        );
        assert!(
            validate_telemetry_json(&sample.replace("[7,3,0,0]", "[7,3,0]"))
                .unwrap_err()
                .contains("4 entries")
        );
        assert!(
            validate_telemetry_json(&sample.replace("\"sweep\"", "\"sweepx\""))
                .unwrap_err()
                .contains("sweep")
        );
        assert!(validate_telemetry_json(
            &sample.replace("\"fit_residual_max\":0.031200", "\"fit_residual_max\":-1.0")
        )
        .unwrap_err()
        .contains("fit_residual_max"));
        assert!(
            validate_telemetry_json(&sample.replace("\"powercap\"", "\"powercapx\""))
                .unwrap_err()
                .contains("powercap")
        );
        assert!(validate_telemetry_json(
            &sample.replace("\"throttle_events\":2", "\"throttle_events\":-1")
        )
        .unwrap_err()
        .contains("throttle_events"));
    }
}
