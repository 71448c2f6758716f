//! The append-only file: Redis' persistence and, under GDPR, its audit trail.
//!
//! The file itself — framing, at-rest sealing, fsync policy, torn-tail
//! handling, resume after reopen — is [`crypto::log`]. This module is the
//! payload codec: one frame holds the RESP encoding of one command
//! ([`crate::resp::encode_command`] on the way in, [`decode`] on the way out).
//!
//! The paper measures AOF logging as the single most expensive GDPR feature
//! for Redis (~70% throughput loss once reads are logged too).

use crate::error::{KvError, KvResult};
use crate::resp;
use bytes::Bytes;
use crypto::{log, Volume};

/// Parse one frame's payload back into the command (name + args) it logs.
pub fn decode(payload: &[u8]) -> KvResult<Vec<Bytes>> {
    let (parts, consumed) = resp::parse_command(payload)?;
    if consumed != payload.len() {
        return Err(KvError::Corrupt("trailing bytes in frame".into()));
    }
    Ok(parts)
}

/// Strict replay: decode a whole AOF byte stream into its command
/// sequence, refusing a torn tail.
pub fn decode_log(data: &[u8], volume: Option<&Volume>) -> KvResult<Vec<Vec<Bytes>>> {
    let (payloads, torn) = log::read(data, volume)?;
    if torn > 0 {
        return Err(KvError::Corrupt(format!("{torn}-byte truncated frame")));
    }
    payloads.iter().map(|payload| decode(payload)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crypto::log::{FsyncPolicy, Log, Storage};

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|byte| format!("{byte:02x}")).collect()
    }

    /// The on-disk bytes of `SET k v`, `EXPIREAT k 1000`, `DEL k` — plain,
    /// and sealed under the seed `golden-seed` — captured from the commit
    /// before the log writer moved to `crypto::log`. A file either commit
    /// wrote must replay on the other.
    const GOLDEN_PLAIN: &str = "1b0000002a330d0a24330d0a5345540d0a24310d0a6b0d0a24310d0a760d0a\
        230000002a330d0a24380d0a45585049524541540d0a24310d0a6b0d0a24340d0a313030300d0a\
        140000002a320d0a24330d0a44454c0d0a24310d0a6b0d0a";
    const GOLDEN_SEALED: &str = "2b0000000000000000000000d5049fe21562252d6ccd47747536330a8675ce4f\
        2ab214d61fbb01d0c7c1f21118d175\
        330000000100000000000000cd3b0fe5f1600665cb23c5f9e1c6899fad465853d23e0c4a69269204994ce0d5\
        e7c6c3bb89a1203aec29c7\
        2400000002000000000000007554715634af700ac83cce5d3ccdd45172d7809cd5995ffe61f7558d";

    fn golden_commands() -> [Vec<Bytes>; 3] {
        [
            vec![b("SET"), b("k"), b("v")],
            vec![b("EXPIREAT"), b("k"), b("1000")],
            vec![b("DEL"), b("k")],
        ]
    }

    fn logged(commands: &[Vec<Bytes>], volume: Option<Volume>) -> Vec<u8> {
        let (aof, _) = Log::open(&Storage::Memory, FsyncPolicy::Never, volume, 0).unwrap();
        let mut aof = aof.unwrap();
        for command in commands {
            aof.append(&resp::encode_command(command), 0).unwrap();
        }
        let raw = aof.memory_buffer().unwrap().lock().clone();
        raw
    }

    #[test]
    fn golden_bytes() {
        for (golden, seed) in [(GOLDEN_PLAIN, None), (GOLDEN_SEALED, Some(b"golden-seed"))] {
            let volume = || seed.map(|seed| Volume::new(seed));
            let raw = logged(&golden_commands(), volume());
            assert_eq!(hex(&raw), golden);
            let replayed = decode_log(&raw, volume().as_ref()).unwrap();
            assert_eq!(replayed, golden_commands());
        }
    }

    /// Logs written before `SET` carried its own deadline hold a TTL'd
    /// write as a `SET` + `EXPIREAT` pair. Such a log still replays to
    /// the keyspace, deadlines and generation it always did — one step per
    /// frame — and to the same keyspace and deadlines as today's single
    /// `SET … PXAT` frame.
    #[test]
    fn the_set_expireat_pair_replays_like_one_set_pxat_frame() {
        use crate::{KvConfig, KvStore};
        let sim = clock::sim();
        let replay = |commands: &[Vec<Bytes>]| {
            let raw = logged(commands, None);
            KvStore::replay(KvConfig::default(), &raw, sim.clone()).unwrap()
        };
        let [set, expireat, del] = golden_commands();
        let pair = replay(&[set, expireat]);
        let single = replay(&[vec![b("SET"), b("k"), b("v"), b("PXAT"), b("1000")]]);
        for (store, generation) in [(&pair, 2), (&single, 1)] {
            assert_eq!(store.dbsize(), 1);
            assert_eq!(store.get(b"k").unwrap(), Some(b("v")));
            assert_eq!(
                store.expiry_at(b"k"),
                Some(clock::Timestamp::from_millis(1000))
            );
            assert_eq!(store.expire_set_len(), 1);
            assert_eq!(store.mutation_generation(), generation);
        }
        let golden = replay(&golden_commands());
        assert_eq!(golden.dbsize(), 0);
        assert_eq!(golden.mutation_generation(), 3);
        let single_then_del = replay(&[vec![b("SET"), b("k"), b("v"), b("PXAT"), b("1000")], del]);
        assert_eq!(single_then_del.dbsize(), 0);
        assert_eq!(single_then_del.mutation_generation(), 2);
    }

    #[test]
    fn strict_replay_refuses_a_torn_tail_and_trailing_bytes() {
        let raw = logged(&golden_commands(), None);
        for cut in [2, raw.len() - 2] {
            let torn = decode_log(&raw[..cut], None);
            assert!(matches!(torn, Err(KvError::Corrupt(_))), "cut at {cut}");
        }
        let mut padded = resp::encode_command(&golden_commands()[0]);
        padded.extend_from_slice(b"+OK\r\n");
        assert!(matches!(decode(&padded), Err(KvError::Corrupt(_))));
    }
}
