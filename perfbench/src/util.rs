//! Measurement helpers: exact order statistics, process counters from
//! `/proc`, the result writer, and a JSON well-formedness check.

use std::fmt::Write as _;

/// Exact order statistic at quantile `q` (nearest rank) of `samples`.
/// Returns `NaN` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A field of `/proc/self/status` in kB (e.g. `VmHWM`), 0 if absent.
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") as f64 / 1024.0
}

/// User plus system CPU time of this process, in seconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields restart after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Named metrics in insertion order, written as the result line's
/// `metrics` object.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// The `metrics` object: `{"name": {"value": v, "unit": "u"}, ...}`.
    /// Values that are not finite (an empty sample) are written as
    /// `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust keeps, or `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Whether `text` is exactly one well-formed JSON value (RFC 8259
/// grammar, surrounding whitespace allowed).
pub fn is_valid_json(text: &str) -> bool {
    let mut p = JsonCheck {
        b: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.ws();
    if !p.value() {
        return false;
    }
    p.ws();
    p.i == p.b.len()
}

struct JsonCheck<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl JsonCheck<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn lit(&mut self, word: &[u8]) -> bool {
        if self.b[self.i..].starts_with(word) {
            self.i += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> bool {
        match self.peek() {
            Some(b'{') => self.seq(b'}', true),
            Some(b'[') => self.seq(b']', false),
            Some(b'"') => self.string(),
            Some(b't') => self.lit(b"true"),
            Some(b'f') => self.lit(b"false"),
            Some(b'n') => self.lit(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    /// An object (`keyed`) or array, the opening bracket at `self.i`.
    fn seq(&mut self, close: u8, keyed: bool) -> bool {
        self.depth += 1;
        if self.depth > 512 {
            return false;
        }
        self.i += 1;
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            self.depth -= 1;
            return true;
        }
        loop {
            if keyed {
                if self.peek() != Some(b'"') || !self.string() {
                    return false;
                }
                self.ws();
                if self.peek() != Some(b':') {
                    return false;
                }
                self.i += 1;
                self.ws();
            }
            if !self.value() {
                return false;
            }
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                    self.ws();
                }
                Some(c) if c == close => {
                    self.i += 1;
                    self.depth -= 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    fn string(&mut self) -> bool {
        self.i += 1;
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return true,
                b'\\' => match self.peek() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                    Some(b'u') => {
                        let hex = self.b.get(self.i + 1..self.i + 5);
                        if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                            return false;
                        }
                        self.i += 5;
                    }
                    _ => return false,
                },
                c if c < 0x20 => return false,
                _ => {}
            }
        }
        false
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> bool {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else if self.digits() == 0 {
            return false;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return false;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_check_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            " {\"a\": [1, -2.5e3, true, null, \"x\\n\\u00e9\"]} ",
            "0",
        ] {
            assert!(is_valid_json(ok), "{ok}");
        }
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "01",
            "\"\\x\"",
            "{} {}",
            "nul",
        ] {
            assert!(!is_valid_json(bad), "{bad}");
        }
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
