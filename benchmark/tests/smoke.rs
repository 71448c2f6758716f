//! Toy-scale run of every workload in both modes: every metric name in
//! `BENCHMARK.json` is printed exactly once with a finite value, and no name
//! is printed that `BENCHMARK.json` lacks.

use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value, as much of one as the two documents need.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    List(Vec<Json>),
    /// Pairs, in document order, duplicates kept so they can be detected.
    Object(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) {
        self.skip_space();
        assert_eq!(self.bytes[self.at], byte, "at byte {}", self.at);
        self.at += 1;
    }

    fn text(&mut self) -> String {
        self.expect(b'"');
        let start = self.at;
        while self.bytes[self.at] != b'"' {
            // Neither document escapes anything but the odd quote-free text.
            assert_ne!(self.bytes[self.at], b'\\', "escapes are not supported");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.bytes[start..self.at - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.bytes[self.at] {
            b'{' => {
                self.at += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_space();
                    if self.bytes[self.at] == b'}' {
                        self.at += 1;
                        return Json::Object(pairs);
                    }
                    if !pairs.is_empty() {
                        self.expect(b',');
                    }
                    let key = self.text();
                    self.expect(b':');
                    pairs.push((key, self.value()));
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_space();
                    if self.bytes[self.at] == b']' {
                        self.at += 1;
                        return Json::List(items);
                    }
                    if !items.is_empty() {
                        self.expect(b',');
                    }
                    items.push(self.value());
                }
            }
            b'"' => Json::Text(self.text()),
            b't' => {
                self.at += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.at += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.at += 4;
                Json::Null
            }
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                Json::Number(text.parse().unwrap_or_else(|_| panic!("number {text:?}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value();
    parser.skip_space();
    assert_eq!(parser.at, text.len(), "trailing bytes after the JSON value");
    value
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(items) => items,
            other => panic!("{other:?} is not a list"),
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::Text(text) => text,
            other => panic!("{other:?} is not text"),
        }
    }
}

/// name → unit of one metric section of `BENCHMARK.json`.
fn declared(benchmark: &Json, section: &str) -> BTreeMap<String, String> {
    benchmark
        .get(section)
        .list()
        .iter()
        .map(|m| {
            (
                m.get("name").text().to_string(),
                m.get("unit").text().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_once_and_nothing_else() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let benchmark = parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap());
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .list()
        .iter()
        .map(|w| w.get("name").text())
        .collect();
    assert_eq!(workloads.len(), 4);

    for workload in workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "smoke"])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} --trace {trace}: {stderr}"
            );
            let stdout = String::from_utf8(output.stdout).unwrap();
            let result = parse(stdout.lines().last().expect("a result line"));
            assert_eq!(*result.get("correct"), Json::Bool(true), "{workload}");
            assert_eq!(*result.get("failed"), Json::Number(0.0), "{workload}");
            assert!(matches!(result.get("attempted"), Json::Number(n) if *n >= 1.0));

            let Json::Object(printed) = result.get("metrics") else {
                panic!("metrics is not an object");
            };
            let expected = declared(&benchmark, section);
            for (name, unit) in &expected {
                let hits: Vec<&Json> = printed
                    .iter()
                    .filter(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(
                    hits.len(),
                    1,
                    "{workload} --trace {trace}: {name} printed {} times",
                    hits.len()
                );
                assert_eq!(hits[0].get("unit").text(), unit, "{name}");
                assert!(
                    matches!(hits[0].get("value"), Json::Number(v) if v.is_finite()),
                    "{workload}: {name} = {:?}",
                    hits[0].get("value")
                );
            }
            for (name, _) in printed {
                assert!(
                    expected.contains_key(name),
                    "{workload} --trace {trace} prints {name}, which BENCHMARK.json lacks"
                );
            }
            if section == "end_to_end" {
                for (name, value) in printed {
                    assert!(
                        matches!(value.get("value"), Json::Number(v) if *v > 0.0),
                        "{workload}: end-to-end metric {name} must never be 0"
                    );
                }
            }
        }
    }
}
