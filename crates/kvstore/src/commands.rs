//! The command set: typed commands, their wire (RESP) form, and their
//! execution against the keyspace.
//!
//! This mirrors Redis' dispatch table: each command knows its name, whether
//! it mutates the keyspace (and therefore must be AOF-logged), its RESP
//! encoding (for the AOF and the encrypted transit boundary), and how to
//! apply itself to a [`Db`]. The key reads `GET`, `MGET`, `EXISTS` and
//! `SCAN` are log forms only: they parse and encode, and
//! [`Command::execute`] refuses them — the store's readers
//! ([`crate::KvStore::read_key`], [`crate::KvStore::read_each`],
//! [`crate::KvStore::read_prefix`]) are the one way to read a key.

use crate::db::Db;
use crate::error::{KvError, KvResult};
use crate::value::Value;
use bytes::Bytes;
use clock::Timestamp;
use std::time::Duration;

/// A reply from the store — the RESP reply universe.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `+OK`
    Ok,
    /// Null bulk string.
    Nil,
    /// `:n`
    Int(i64),
    /// `$len\r\n...`
    Bulk(Bytes),
    /// `*n` of nested replies.
    Array(Vec<Reply>),
}

impl Reply {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Reply::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bulk(&self) -> Option<&Bytes> {
        match self {
            Reply::Bulk(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Reply]> {
        match self {
            Reply::Array(a) => Some(a),
            _ => None,
        }
    }

    /// RESP-encode this reply (for the encrypted transit boundary).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Ok => out.extend_from_slice(b"+OK\r\n"),
            Reply::Nil => out.extend_from_slice(b"$-1\r\n"),
            Reply::Int(n) => out.extend_from_slice(format!(":{n}\r\n").as_bytes()),
            Reply::Bulk(b) => {
                out.extend_from_slice(format!("${}\r\n", b.len()).as_bytes());
                out.extend_from_slice(b);
                out.extend_from_slice(b"\r\n");
            }
            Reply::Array(items) => {
                out.extend_from_slice(format!("*{}\r\n", items.len()).as_bytes());
                for item in items {
                    item.encode_into(out);
                }
            }
        }
    }
}

/// What a `SET` does to its key's deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SetDeadline {
    /// No option: the key carries no deadline afterwards.
    Clear,
    /// `KEEPTTL`: an existing key keeps its deadline, exactly and in
    /// place; a new key gets none.
    Keep,
    /// `PX ms` (or `EX s`): the deadline is this far from now.
    In(Duration),
    /// `PXAT ms`: the deadline is this instant, in milliseconds on the
    /// store's clock.
    At(u64),
}

/// A typed store command — the ten some caller issues or some log holds
/// (see the table in the crate docs). Anything else in a replayed log is a
/// syntax error, never a skipped frame. `Get`, `MGet`, `Exists` and `Scan`
/// are what a logged or sealed read stands for, or what an older log
/// holds; they are never executed.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `SET key value [NX] [PX ms | EX s | PXAT ms | KEEPTTL]`. With `NX`
    /// (`only_if_absent`) a live occupant is left untouched and the reply
    /// is nil; a past-due one is reaped first, so it counts as absent.
    Set {
        key: Bytes,
        value: Bytes,
        only_if_absent: bool,
        deadline: SetDeadline,
    },
    Get {
        key: Bytes,
    },
    /// One reply element per key, in order: the value, or nil.
    MGet {
        keys: Vec<Bytes>,
    },
    Del {
        keys: Vec<Bytes>,
    },
    Exists {
        keys: Vec<Bytes>,
    },
    Expire {
        key: Bytes,
        ttl: Duration,
    },
    /// Absolute-deadline expiry (what the AOF logs, as Redis logs PEXPIREAT).
    ExpireAt {
        key: Bytes,
        at_ms: u64,
    },
    Scan {
        cursor: usize,
        count: usize,
        pattern: Option<Bytes>,
    },
    ZAdd {
        key: Bytes,
        entries: Vec<(f64, Bytes)>,
    },
    ZRangeByScore {
        key: Bytes,
        min: f64,
        max: f64,
        /// `LIMIT 0 n` — cap on members returned.
        limit: Option<usize>,
    },
}

impl Command {
    /// The command's wire name.
    pub fn name(&self) -> &'static str {
        use Command::*;
        match self {
            Set { .. } => "SET",
            Get { .. } => "GET",
            MGet { .. } => "MGET",
            Del { .. } => "DEL",
            Exists { .. } => "EXISTS",
            Expire { .. } => "EXPIRE",
            ExpireAt { .. } => "EXPIREAT",
            Scan { .. } => "SCAN",
            ZAdd { .. } => "ZADD",
            ZRangeByScore { .. } => "ZRANGEBYSCORE",
        }
    }

    /// Does this command mutate the keyspace? Mutating commands are always
    /// AOF-logged; read commands only under GDPR read-logging.
    pub fn is_write(&self) -> bool {
        use Command::*;
        matches!(
            self,
            Set { .. } | Del { .. } | Expire { .. } | ExpireAt { .. } | ZAdd { .. }
        )
    }

    /// Wire (RESP array) form: command name followed by arguments.
    pub fn to_wire(&self) -> Vec<Bytes> {
        use Command::*;
        let s = |t: &str| Bytes::copy_from_slice(t.as_bytes());
        let mut parts = vec![s(self.name())];
        match self {
            Set {
                key,
                value,
                only_if_absent,
                deadline,
            } => {
                parts.push(key.clone());
                parts.push(value.clone());
                if *only_if_absent {
                    parts.push(s("NX"));
                }
                match deadline {
                    SetDeadline::Clear => {}
                    SetDeadline::Keep => parts.push(s("KEEPTTL")),
                    SetDeadline::In(d) => parts.extend([s("PX"), s(&d.as_millis().to_string())]),
                    SetDeadline::At(ms) => parts.extend([s("PXAT"), s(&ms.to_string())]),
                }
            }
            Get { key } => {
                parts.push(key.clone());
            }
            MGet { keys } | Del { keys } | Exists { keys } => parts.extend(keys.iter().cloned()),
            Expire { key, ttl } => {
                parts.push(key.clone());
                parts.push(s(&ttl.as_millis().to_string()));
            }
            ExpireAt { key, at_ms } => {
                parts.push(key.clone());
                parts.push(s(&at_ms.to_string()));
            }
            Scan {
                cursor,
                count,
                pattern,
            } => {
                parts.push(s(&cursor.to_string()));
                parts.push(s("COUNT"));
                parts.push(s(&count.to_string()));
                if let Some(p) = pattern {
                    parts.push(s("MATCH"));
                    parts.push(p.clone());
                }
            }
            ZAdd { key, entries } => {
                parts.push(key.clone());
                for (score, member) in entries {
                    parts.push(s(&score.to_string()));
                    parts.push(member.clone());
                }
            }
            ZRangeByScore {
                key,
                min,
                max,
                limit,
            } => {
                parts.push(key.clone());
                parts.push(s(&min.to_string()));
                parts.push(s(&max.to_string()));
                if let Some(n) = limit {
                    parts.push(s("LIMIT"));
                    parts.push(s("0"));
                    parts.push(s(&n.to_string()));
                }
            }
        }
        parts
    }

    /// Parse a wire-form command (used by AOF replay).
    pub fn from_wire(parts: &[Bytes]) -> KvResult<Command> {
        use Command::*;
        let name = parts
            .first()
            .ok_or_else(|| KvError::Syntax("empty command".into()))?;
        let name = std::str::from_utf8(name)
            .map_err(|_| KvError::Syntax("non-utf8 command name".into()))?
            .to_ascii_uppercase();
        let args = &parts[1..];
        let arity = |n: usize| -> KvResult<()> {
            if args.len() == n {
                Ok(())
            } else {
                Err(KvError::Syntax(format!(
                    "{name} expects {n} args, got {}",
                    args.len()
                )))
            }
        };
        let at_least = |n: usize| -> KvResult<()> {
            if args.len() >= n {
                Ok(())
            } else {
                Err(KvError::Syntax(format!(
                    "{name} expects at least {n} args, got {}",
                    args.len()
                )))
            }
        };
        Ok(match name.as_str() {
            "SET" => {
                at_least(2)?;
                // A log is input from outside the program: an option given
                // twice, or two deadline options, is refused, not guessed.
                let (mut only_if_absent, mut deadline) = (false, None);
                let mut options = args[2..].iter();
                while let Some(option) = options.next() {
                    let option = String::from_utf8_lossy(option).to_ascii_uppercase();
                    // A missing value parses as the empty string: refused.
                    let mut number = || parse_u64(options.next().map_or(&[][..], |n| n));
                    let given = match option.as_str() {
                        "NX" if !only_if_absent => {
                            only_if_absent = true;
                            continue;
                        }
                        "PX" => Some(SetDeadline::In(Duration::from_millis(number()?))),
                        "EX" => Some(SetDeadline::In(Duration::from_secs(number()?))),
                        "PXAT" => Some(SetDeadline::At(number()?)),
                        "KEEPTTL" => Some(SetDeadline::Keep),
                        _ => None,
                    };
                    if given.is_none() || deadline.is_some() {
                        let msg = format!("bad, repeated or conflicting SET option {option}");
                        return Err(KvError::Syntax(msg));
                    }
                    deadline = given;
                }
                Set {
                    key: args[0].clone(),
                    value: args[1].clone(),
                    only_if_absent,
                    deadline: deadline.unwrap_or(SetDeadline::Clear),
                }
            }
            "GET" => {
                arity(1)?;
                Get {
                    key: args[0].clone(),
                }
            }
            "MGET" => {
                at_least(1)?;
                MGet {
                    keys: args.to_vec(),
                }
            }
            "DEL" => {
                at_least(1)?;
                Del {
                    keys: args.to_vec(),
                }
            }
            "EXISTS" => {
                at_least(1)?;
                Exists {
                    keys: args.to_vec(),
                }
            }
            "EXPIRE" => {
                arity(2)?;
                Expire {
                    key: args[0].clone(),
                    ttl: Duration::from_millis(parse_u64(&args[1])?),
                }
            }
            "EXPIREAT" => {
                arity(2)?;
                ExpireAt {
                    key: args[0].clone(),
                    at_ms: parse_u64(&args[1])?,
                }
            }
            "SCAN" => {
                at_least(1)?;
                let cursor = parse_u64(&args[0])? as usize;
                let (mut count, mut pattern) = (10, None);
                let mut options = args[1..].iter();
                while let Some(option) = options.next() {
                    let option = String::from_utf8_lossy(option).to_ascii_uppercase();
                    let value = options
                        .next()
                        .ok_or_else(|| KvError::Syntax(format!("{option} missing value")));
                    match option.as_str() {
                        "COUNT" => count = parse_u64(value?)? as usize,
                        "MATCH" => pattern = Some(value?.clone()),
                        other => return Err(KvError::Syntax(format!("bad SCAN option {other}"))),
                    }
                }
                Scan {
                    cursor,
                    count,
                    pattern,
                }
            }
            "ZADD" => {
                at_least(3)?;
                if args.len() % 2 != 1 {
                    return Err(KvError::Syntax("ZADD needs score/member pairs".into()));
                }
                ZAdd {
                    key: args[0].clone(),
                    entries: args[1..]
                        .chunks_exact(2)
                        .map(|c| Ok((parse_f64(&c[0])?, c[1].clone())))
                        .collect::<KvResult<_>>()?,
                }
            }
            "ZRANGEBYSCORE" => {
                at_least(3)?;
                let limit = if args.len() == 6 {
                    Some(parse_u64(&args[5])? as usize)
                } else if args.len() == 3 {
                    None
                } else {
                    return Err(KvError::Syntax(
                        "ZRANGEBYSCORE takes 3 args or LIMIT 0 n".into(),
                    ));
                };
                ZRangeByScore {
                    key: args[0].clone(),
                    min: parse_f64(&args[1])?,
                    max: parse_f64(&args[2])?,
                    limit,
                }
            }
            other => return Err(KvError::Syntax(format!("unknown command {other}"))),
        })
    }

    /// Execute against a keyspace: a write, or `ZRANGEBYSCORE`. A key read
    /// is refused with a syntax error naming the reader that serves it.
    pub fn execute(&self, db: &mut Db) -> KvResult<Reply> {
        use Command::*;
        Ok(match self {
            Set {
                key,
                value,
                only_if_absent,
                deadline,
            } => {
                // `exists` reaps a past-due occupant, which then is absent.
                if *only_if_absent && db.exists(key) {
                    return Ok(Reply::Nil);
                }
                let at = match deadline {
                    SetDeadline::Clear => None,
                    SetDeadline::Keep => db.expiry_of(key),
                    SetDeadline::In(ttl) => Some(db.clock().now() + *ttl),
                    SetDeadline::At(ms) => Some(Timestamp::from_millis(*ms)),
                };
                db.set(key.clone(), Value::Str(value.clone()), at);
                Reply::Ok
            }
            Get { .. } => return Err(self.log_form_only("read_key")),
            MGet { .. } | Exists { .. } => return Err(self.log_form_only("read_each")),
            Scan { .. } => return Err(self.log_form_only("read_prefix")),
            Del { keys } => Reply::Int(keys.iter().map(|key| i64::from(db.remove(key))).sum()),
            Expire { key, ttl } => {
                let at = db.clock().now() + *ttl;
                Reply::Int(db.set_expiry(key, at) as i64)
            }
            ExpireAt { key, at_ms } => {
                Reply::Int(db.set_expiry(key, Timestamp::from_millis(*at_ms)) as i64)
            }
            ZAdd { key, entries } => {
                for (score, _) in entries {
                    not_nan(*score)?;
                }
                let zset = db
                    .get_or_create(
                        key,
                        || Value::ZSet(Box::default()),
                        |v| matches!(v, Value::ZSet(_)),
                    )?
                    .as_zset_mut()?;
                let mut added = 0;
                for (score, member) in entries {
                    if zset.add(member.clone(), *score) {
                        added += 1;
                    }
                }
                Reply::Int(added)
            }
            ZRangeByScore {
                key,
                min,
                max,
                limit,
            } => {
                let (min, max) = (not_nan(*min)?, not_nan(*max)?);
                match db.get(key) {
                    Some(v) => Reply::Array(
                        v.as_zset()?
                            .range_by_score_limit(min, max, limit.unwrap_or(usize::MAX))
                            .into_iter()
                            .map(|(m, _)| Reply::Bulk(m))
                            .collect(),
                    ),
                    None => Reply::Array(vec![]),
                }
            }
        })
    }

    /// The refusal of a key read, naming the reader that serves it.
    fn log_form_only(&self, reader: &str) -> KvError {
        let name = self.name();
        KvError::Syntax(format!(
            "{name} is a log form: read through KvStore::{reader}"
        ))
    }
}

fn parse_u64(b: &[u8]) -> KvResult<u64> {
    std::str::from_utf8(b)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| KvError::Syntax(format!("bad integer {:?}", String::from_utf8_lossy(b))))
}

fn parse_f64(b: &[u8]) -> KvResult<f64> {
    std::str::from_utf8(b)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|f: &f64| !f.is_nan())
        .ok_or_else(|| KvError::Syntax(format!("bad float {:?}", String::from_utf8_lossy(b))))
}

/// A sorted-set score or bound, refused when NaN (as Redis refuses one):
/// NaN has no place in the `(score, member)` order.
fn not_nan(score: f64) -> KvResult<f64> {
    if score.is_nan() {
        return Err(KvError::Syntax("score is not a valid float".into()));
    }
    Ok(score)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn run(db: &mut Db, cmd: Command) -> Reply {
        cmd.execute(db).unwrap()
    }

    #[test]
    fn set_get_del() {
        let mut db = Db::new(clock::sim());
        assert_eq!(
            run(
                &mut db,
                Command::Set {
                    key: b("k"),
                    value: b("v"),
                    only_if_absent: false,
                    deadline: SetDeadline::Clear
                }
            ),
            Reply::Ok
        );
        assert_eq!(db.get(b"k").unwrap().as_str().unwrap(), &b("v"));
        assert_eq!(
            run(
                &mut db,
                Command::Del {
                    keys: vec![b("k"), b("ghost")]
                }
            ),
            Reply::Int(1)
        );
        assert!(db.get(b"k").is_none());
    }

    #[test]
    fn set_with_expiry_sets_a_deadline_and_expires() {
        let sim = clock::sim();
        let mut db = Db::new(sim.clone());
        run(
            &mut db,
            Command::Set {
                key: b("k"),
                value: b("v"),
                only_if_absent: false,
                deadline: SetDeadline::In(Duration::from_secs(10)),
            },
        );
        assert_eq!(db.expiry_of(b"k"), Some(Timestamp::from_secs(10)));
        sim.advance(Duration::from_secs(11));
        assert!(!db.exists(b"k"));
    }

    #[test]
    fn wrongtype_across_commands() {
        let mut db = Db::new(clock::sim());
        run(
            &mut db,
            Command::Set {
                key: b("s"),
                value: b("v"),
                only_if_absent: false,
                deadline: SetDeadline::Clear,
            },
        );
        run(
            &mut db,
            Command::ZAdd {
                key: b("z"),
                entries: vec![(1.0, b("m"))],
            },
        );
        assert_eq!(
            Command::ZAdd {
                key: b("s"),
                entries: vec![(1.0, b("m"))]
            }
            .execute(&mut db)
            .unwrap_err(),
            KvError::WrongType
        );
        assert_eq!(
            Command::ZRangeByScore {
                key: b("s"),
                min: 0.0,
                max: 1.0,
                limit: None
            }
            .execute(&mut db)
            .unwrap_err(),
            KvError::WrongType
        );
    }

    #[test]
    fn zset_commands() {
        let mut db = Db::new(clock::sim());
        assert_eq!(
            run(
                &mut db,
                Command::ZAdd {
                    key: b("z"),
                    entries: vec![(2.0, b("b")), (1.0, b("a")), (3.0, b("c")), (2.0, b("b"))],
                },
            ),
            Reply::Int(3)
        );
        let range = run(
            &mut db,
            Command::ZRangeByScore {
                key: b("z"),
                min: 1.5,
                max: 3.0,
                limit: None,
            },
        );
        assert_eq!(
            range,
            Reply::Array(vec![Reply::Bulk(b("b")), Reply::Bulk(b("c"))])
        );
        let capped = run(
            &mut db,
            Command::ZRangeByScore {
                key: b("z"),
                min: f64::NEG_INFINITY,
                max: f64::INFINITY,
                limit: Some(1),
            },
        );
        assert_eq!(capped, Reply::Array(vec![Reply::Bulk(b("a"))]));
        assert_eq!(
            run(
                &mut db,
                Command::ZRangeByScore {
                    key: b("ghost"),
                    min: 0.0,
                    max: 1.0,
                    limit: None,
                },
            ),
            Reply::Array(vec![])
        );
    }

    #[test]
    fn nan_scores_and_bounds_are_refused() {
        let mut db = Db::new(clock::sim());
        let wire =
            |parts: &[&str]| Command::from_wire(&parts.iter().map(|p| b(p)).collect::<Vec<_>>());
        for zadd in [["ZADD", "k", "1", "a"], ["ZADD", "k", "2", "c"]] {
            wire(&zadd).unwrap().execute(&mut db).unwrap();
        }
        assert!(matches!(
            wire(&["ZADD", "k", "nan", "b"]),
            Err(KvError::Syntax(_))
        ));
        assert!(matches!(
            wire(&["ZRANGEBYSCORE", "k", "0", "NaN"]),
            Err(KvError::Syntax(_))
        ));
        // The in-process form is refused too, before anything is added.
        let nan_b = Command::ZAdd {
            key: b("k"),
            entries: vec![(3.0, b("d")), (f64::NAN, b("b"))],
        };
        assert!(matches!(nan_b.execute(&mut db), Err(KvError::Syntax(_))));
        let nan_bound = Command::ZRangeByScore {
            key: b("k"),
            min: f64::NAN,
            max: 9.0,
            limit: None,
        };
        assert!(matches!(
            nan_bound.execute(&mut db),
            Err(KvError::Syntax(_))
        ));
        run(
            &mut db,
            Command::ZAdd {
                key: b("k"),
                entries: vec![(5.0, b("b"))],
            },
        );
        let all = Command::ZRangeByScore {
            key: b("k"),
            min: f64::NEG_INFINITY,
            max: f64::INFINITY,
            limit: None,
        };
        assert_eq!(
            run(&mut db, all),
            Reply::Array(vec![
                Reply::Bulk(b("a")),
                Reply::Bulk(b("c")),
                Reply::Bulk(b("b"))
            ])
        );
    }

    #[test]
    fn wire_roundtrip_all_commands() {
        let samples = vec![
            Command::Set {
                key: b("k"),
                value: b("v"),
                only_if_absent: false,
                deadline: SetDeadline::In(Duration::from_millis(1500)),
            },
            Command::Set {
                key: b("k"),
                value: b("v"),
                only_if_absent: false,
                deadline: SetDeadline::Clear,
            },
            Command::Get { key: b("k") },
            Command::MGet {
                keys: vec![b("a"), b("b")],
            },
            Command::Del {
                keys: vec![b("a"), b("b")],
            },
            Command::Exists { keys: vec![b("a")] },
            Command::Expire {
                key: b("k"),
                ttl: Duration::from_secs(9),
            },
            Command::ExpireAt {
                key: b("k"),
                at_ms: 123456,
            },
            Command::Scan {
                cursor: 5,
                count: 64,
                pattern: Some(b("x*")),
            },
            Command::Scan {
                cursor: 0,
                count: 10,
                pattern: None,
            },
            Command::ZAdd {
                key: b("z"),
                entries: vec![(1.5, b("m"))],
            },
            Command::ZRangeByScore {
                key: b("z"),
                min: 0.0,
                max: 10.0,
                limit: None,
            },
            Command::ZRangeByScore {
                key: b("z"),
                min: 0.0,
                max: 10.0,
                limit: Some(25),
            },
        ];
        for cmd in samples {
            let wire = cmd.to_wire();
            let parsed =
                Command::from_wire(&wire).unwrap_or_else(|e| panic!("{}: {e}", cmd.name()));
            assert_eq!(parsed, cmd, "wire roundtrip mismatch for {}", cmd.name());
        }
    }

    /// Every `SET` shape survives the wire; `EX` seconds parse as the
    /// same relative deadline in milliseconds.
    #[test]
    fn wire_roundtrip_every_set_shape() {
        let deadlines = [
            SetDeadline::Clear,
            SetDeadline::Keep,
            SetDeadline::In(Duration::from_millis(1500)),
            SetDeadline::At(1_700_000_000_123),
        ];
        for only_if_absent in [false, true] {
            for deadline in deadlines {
                let cmd = Command::Set {
                    key: b("k"),
                    value: b("v"),
                    only_if_absent,
                    deadline,
                };
                assert_eq!(Command::from_wire(&cmd.to_wire()).unwrap(), cmd);
            }
        }
        let ex = Command::from_wire(&[b("set"), b("k"), b("v"), b("ex"), b("3"), b("nx")]);
        let want = Command::Set {
            key: b("k"),
            value: b("v"),
            only_if_absent: true,
            deadline: SetDeadline::In(Duration::from_secs(3)),
        };
        assert_eq!(ex.unwrap(), want);
    }

    /// A log is outside input: a repeated or conflicting `SET` option, or
    /// one missing its value, is a syntax error — never a guess.
    #[test]
    fn conflicting_or_incomplete_set_options_are_refused() {
        let refused = [
            &["PX", "5", "KEEPTTL"][..],
            &["KEEPTTL", "PXAT", "5"],
            &["PX", "5", "PX", "6"],
            &["NX", "NX"],
            &["PXAT"],
            &["PX", "soon"],
            &["XX"],
        ];
        for options in refused {
            let mut parts = vec![b("SET"), b("k"), b("v")];
            parts.extend(options.iter().map(|o| b(o)));
            let parsed = Command::from_wire(&parts);
            assert!(matches!(parsed, Err(KvError::Syntax(_))), "{options:?}");
        }
    }

    #[test]
    fn unknown_command_is_rejected() {
        assert!(Command::from_wire(&[b("BOGUS")]).is_err());
        assert!(Command::from_wire(&[]).is_err());
        // A command this store once spoke is as unknown as any other.
        assert_eq!(
            Command::from_wire(&[b("hset"), b("k"), b("f"), b("v")]).unwrap_err(),
            KvError::Syntax("unknown command HSET".into())
        );
    }

    #[test]
    fn arity_errors() {
        assert!(Command::from_wire(&[b("GET")]).is_err());
        assert!(Command::from_wire(&[b("SET"), b("k")]).is_err());
        assert!(Command::from_wire(&[b("ZADD"), b("k"), b("1")]).is_err());
        assert!(Command::from_wire(&[b("EXPIRE"), b("k"), b("abc")]).is_err());
    }

    #[test]
    fn reply_encoding() {
        assert_eq!(Reply::Ok.encode(), b"+OK\r\n");
        assert_eq!(Reply::Nil.encode(), b"$-1\r\n");
        assert_eq!(Reply::Int(-3).encode(), b":-3\r\n");
        assert_eq!(Reply::Bulk(b("hi")).encode(), b"$2\r\nhi\r\n");
        assert_eq!(
            Reply::Array(vec![Reply::Int(1), Reply::Bulk(b("x"))]).encode(),
            b"*2\r\n:1\r\n$1\r\nx\r\n"
        );
    }

    #[test]
    fn write_classification() {
        assert!(Command::Set {
            key: b("k"),
            value: b("v"),
            only_if_absent: false,
            deadline: SetDeadline::Clear
        }
        .is_write());
        assert!(Command::ZAdd {
            key: b("z"),
            entries: vec![(1.0, b("m"))]
        }
        .is_write());
        assert!(!Command::Get { key: b("k") }.is_write());
        assert!(!Command::Scan {
            cursor: 0,
            count: 1,
            pattern: None
        }
        .is_write());
        assert!(!Command::ZRangeByScore {
            key: b("z"),
            min: 0.0,
            max: 1.0,
            limit: None
        }
        .is_write());
    }
}
