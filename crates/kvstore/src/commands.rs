//! The command set: typed commands, their wire (RESP) form, and their
//! execution against the keyspace.
//!
//! This mirrors Redis' dispatch table: each command knows its name, whether
//! it mutates the keyspace (and therefore must be AOF-logged), its RESP
//! encoding (for the AOF and the encrypted transit boundary), and how to
//! apply itself to a [`Db`].

use crate::db::{Db, Peek};
use crate::error::{KvError, KvResult};
use crate::value::{Value, ZSet};
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

/// A typed store command — exactly the ten some caller issues (see the
/// table in the crate docs). Anything else in a replayed log is a syntax
/// error, never a skipped frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Set {
        key: Bytes,
        value: Bytes,
        expire: Option<Duration>,
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
            Set { key, value, expire } => {
                parts.push(key.clone());
                parts.push(value.clone());
                if let Some(d) = expire {
                    parts.push(s("PX"));
                    parts.push(s(&d.as_millis().to_string()));
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
                let expire = if args.len() >= 4 {
                    let unit = std::str::from_utf8(&args[2]).unwrap_or("");
                    let n = parse_u64(&args[3])?;
                    match unit.to_ascii_uppercase().as_str() {
                        "PX" => Some(Duration::from_millis(n)),
                        "EX" => Some(Duration::from_secs(n)),
                        other => return Err(KvError::Syntax(format!("bad SET option {other}"))),
                    }
                } else {
                    None
                };
                Set {
                    key: args[0].clone(),
                    value: args[1].clone(),
                    expire,
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
                let mut count = 10usize;
                let mut pattern = None;
                let mut i = 1;
                while i + 1 < args.len() + 1 && i < args.len() {
                    let opt = std::str::from_utf8(&args[i])
                        .unwrap_or("")
                        .to_ascii_uppercase();
                    match opt.as_str() {
                        "COUNT" => {
                            count =
                                parse_u64(args.get(i + 1).ok_or_else(|| {
                                    KvError::Syntax("COUNT missing value".into())
                                })?)? as usize;
                            i += 2;
                        }
                        "MATCH" => {
                            pattern = Some(
                                args.get(i + 1)
                                    .ok_or_else(|| KvError::Syntax("MATCH missing value".into()))?
                                    .clone(),
                            );
                            i += 2;
                        }
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

    /// Execute against a keyspace.
    pub fn execute(&self, db: &mut Db) -> KvResult<Reply> {
        use Command::*;
        Ok(match self {
            Set { key, value, expire } => {
                db.set(key.clone(), Value::Str(value.clone()));
                if let Some(d) = expire {
                    let at = db.clock().now() + *d;
                    db.set_expiry(key, at);
                }
                Reply::Ok
            }
            Get { key } => bulk_or_nil(db.get(key))?,
            MGet { keys } => Reply::Array(
                keys.iter()
                    .map(|key| bulk_or_nil(db.get(key)))
                    .collect::<KvResult<_>>()?,
            ),
            Del { keys } => {
                let mut n = 0;
                for key in keys {
                    if db.remove(key) {
                        n += 1;
                    }
                }
                Reply::Int(n)
            }
            Exists { keys } => {
                let mut n = 0;
                for key in keys {
                    if db.exists(key) {
                        n += 1;
                    }
                }
                Reply::Int(n)
            }
            Expire { key, ttl } => {
                let at = db.clock().now() + *ttl;
                Reply::Int(db.set_expiry(key, at) as i64)
            }
            ExpireAt { key, at_ms } => {
                Reply::Int(db.set_expiry(key, Timestamp::from_millis(*at_ms)) as i64)
            }
            Scan {
                cursor,
                count,
                pattern,
            } => {
                let (keys, next) = db.scan(*cursor, *count, pattern.as_deref());
                Reply::Array(vec![
                    Reply::Int(next as i64),
                    Reply::Array(keys.into_iter().map(Reply::Bulk).collect()),
                ])
            }
            ZAdd { key, entries } => {
                let zset = db
                    .get_or_create(
                        key,
                        || Value::ZSet(ZSet::new()),
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
            } => match db.get(key) {
                Some(v) => Reply::Array(
                    v.as_zset()?
                        .range_by_score_limit(*min, *max, limit.unwrap_or(usize::MAX))
                        .into_iter()
                        .map(|(m, _)| Reply::Bulk(m))
                        .collect(),
                ),
                None => Reply::Array(vec![]),
            },
        })
    }

    /// Answer a GET or MGET from `&Db` — the keyspace as it stands at `now`,
    /// nothing reaped. `None` when that cannot be done: the command is
    /// neither, or it names a past-due key, which only [`Self::execute`]
    /// may answer (by reaping it).
    pub fn execute_shared(&self, db: &Db, now: Timestamp) -> Option<KvResult<Reply>> {
        let live = |key: &Bytes| match db.peek(key, now) {
            Peek::Live(value) => Some(Some(value)),
            Peek::Absent => Some(None),
            Peek::Due => None,
        };
        match self {
            Command::Get { key } => Some(bulk_or_nil(live(key)?)),
            Command::MGet { keys } => {
                let mut replies = Vec::with_capacity(keys.len());
                for key in keys {
                    match bulk_or_nil(live(key)?) {
                        Ok(reply) => replies.push(reply),
                        Err(e) => return Some(Err(e)),
                    }
                }
                Some(Ok(Reply::Array(replies)))
            }
            _ => None,
        }
    }
}

/// A GET's reply for what the keyspace holds (a non-string is WRONGTYPE).
fn bulk_or_nil(value: Option<&Value>) -> KvResult<Reply> {
    Ok(match value {
        Some(v) => Reply::Bulk(v.as_str()?.clone()),
        None => Reply::Nil,
    })
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
        .ok_or_else(|| KvError::Syntax(format!("bad float {:?}", String::from_utf8_lossy(b))))
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
                    expire: None
                }
            ),
            Reply::Ok
        );
        assert_eq!(
            run(&mut db, Command::Get { key: b("k") }),
            Reply::Bulk(b("v"))
        );
        assert_eq!(
            run(
                &mut db,
                Command::Del {
                    keys: vec![b("k"), b("ghost")]
                }
            ),
            Reply::Int(1)
        );
        assert_eq!(run(&mut db, Command::Get { key: b("k") }), Reply::Nil);
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
                expire: Some(Duration::from_secs(10)),
            },
        );
        assert_eq!(db.expiry_of(b"k"), Some(Timestamp::from_secs(10)));
        sim.advance(Duration::from_secs(11));
        assert_eq!(run(&mut db, Command::Get { key: b("k") }), Reply::Nil);
        assert_eq!(
            run(&mut db, Command::Exists { keys: vec![b("k")] }),
            Reply::Int(0)
        );
    }

    #[test]
    fn wrongtype_across_commands() {
        let mut db = Db::new(clock::sim());
        run(
            &mut db,
            Command::Set {
                key: b("s"),
                value: b("v"),
                expire: None,
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
        assert_eq!(
            Command::Get { key: b("z") }.execute(&mut db).unwrap_err(),
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
    fn scan_pages_through_the_keyspace() {
        let mut db = Db::new(clock::sim());
        for i in 0..25 {
            run(
                &mut db,
                Command::Set {
                    key: b(&format!("k{i}")),
                    value: b("v"),
                    expire: None,
                },
            );
        }
        assert_eq!(db.len(), 25);
        let reply = run(
            &mut db,
            Command::Scan {
                cursor: 0,
                count: 10,
                pattern: None,
            },
        );
        let parts = reply.as_array().unwrap();
        assert_eq!(parts[0], Reply::Int(10));
        assert_eq!(parts[1].as_array().unwrap().len(), 10);
    }

    #[test]
    fn wire_roundtrip_all_commands() {
        let samples = vec![
            Command::Set {
                key: b("k"),
                value: b("v"),
                expire: Some(Duration::from_millis(1500)),
            },
            Command::Set {
                key: b("k"),
                value: b("v"),
                expire: None,
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
            expire: None
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
