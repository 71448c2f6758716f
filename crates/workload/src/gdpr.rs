//! The four GDPRbench workloads (Table 2a of the paper).
//!
//! | workload | operations (default weights) | distribution |
//! |---|---|---|
//! | Controller | create-record 25 / delete-by-{pur,ttl,usr} 25 / update-metadata-by-{pur,usr,shr} 50 | uniform |
//! | Customer | read-data-by-usr, read-metadata-by-key, update-data-by-key, update-metadata-by-key, delete-record-by-key — 20 each | zipf |
//! | Processor | read-data-by-key 80 (zipf) / read-data-by-{pur,obj,dec} 20 (uniform) | mixed |
//! | Regulator | read-metadata-by-usr 46 / get-system-logs 31 / verify-deletion 23 | zipf |
//!
//! The weights follow the paper's calibration: controller uniformity from
//! G5.1 steady-state, customer/regulator zipf from the Google RTBF report,
//! regulator splits from the EDPB's first-nine-months complaint statistics
//! (46% customer complaints / 31% breach notifications / 23% statutory
//! inquiries). One workload note: §3.3's taxonomy has no
//! `update-metadata-by-shr` query, although Table 2a names one — we follow
//! the taxonomy and model the controller's sharing-maintenance as
//! user-scoped sharing updates.

use crate::datagen::{self, CorpusConfig, PURPOSES, THIRD_PARTIES};
use crate::generator::{Discrete, IndexGenerator, Uniform, Zipfian};
use gdpr_core::query::{GdprQuery, MetadataField, MetadataUpdate};
use gdpr_core::role::Session;
use gdpr_core::tenant::TenantId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which of the four entity workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GdprWorkloadKind {
    Controller,
    Customer,
    Processor,
    Regulator,
}

impl GdprWorkloadKind {
    pub const ALL: [GdprWorkloadKind; 4] = [
        GdprWorkloadKind::Controller,
        GdprWorkloadKind::Customer,
        GdprWorkloadKind::Processor,
        GdprWorkloadKind::Regulator,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            GdprWorkloadKind::Controller => "controller",
            GdprWorkloadKind::Customer => "customer",
            GdprWorkloadKind::Processor => "processor",
            GdprWorkloadKind::Regulator => "regulator",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpName {
    Create,
    DeleteByPur,
    DeleteByTtl,
    DeleteByUsr,
    UpdateMetaByPur,
    UpdateMetaByUsr,
    UpdateMetaSharing,
    ReadDataByUsr,
    ReadMetaByKey,
    UpdateDataByKey,
    UpdateMetaByKey,
    DeleteByKey,
    ReadDataByKey,
    ReadDataByPur,
    ReadDataByObj,
    ReadDataByDec,
    ReadMetaByUsr,
    GetSystemLogs,
    VerifyDeletion,
}

/// One of the four workloads, generating `(Session, GdprQuery)` streams.
///
/// One instance per client thread; `create_counter` is shared so controller
/// threads mint disjoint new record keys.
pub struct GdprWorkload {
    kind: GdprWorkloadKind,
    corpus: CorpusConfig,
    op_chooser: Discrete<OpName>,
    zipf_records: Zipfian,
    zipf_users: Zipfian,
    uniform_records: Uniform,
    uniform_users: Uniform,
    /// Keys owned by each user index (derived from the deterministic corpus).
    user_keys: Arc<HashMap<usize, Vec<usize>>>,
    create_counter: Arc<AtomicU64>,
    /// Every generated session executes under this tenant.
    tenant: TenantId,
    /// When set (`--skew zipf:THETA`), purpose picks become zipf-ranked
    /// instead of uniform, matching the re-skewed key/user generators.
    purpose_zipf: Option<Zipfian>,
}

impl GdprWorkload {
    /// Build a workload over a corpus of `corpus.records` preloaded records.
    /// `create_counter` must start at `corpus.records` and be shared across
    /// threads.
    pub fn new(
        kind: GdprWorkloadKind,
        corpus: CorpusConfig,
        create_counter: Arc<AtomicU64>,
    ) -> Self {
        let op_chooser = Discrete::new(Self::mix(kind));
        let n = corpus.records.max(1) as u64;
        let users = corpus.users.max(1) as u64;
        let mut user_keys: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..corpus.records {
            let user_idx = user_index_of(i, &corpus);
            user_keys.entry(user_idx).or_default().push(i);
        }
        GdprWorkload {
            kind,
            corpus,
            op_chooser,
            zipf_records: Zipfian::new(n),
            zipf_users: Zipfian::new(users),
            uniform_records: Uniform::new(n),
            uniform_users: Uniform::new(users),
            user_keys: Arc::new(user_keys),
            create_counter,
            tenant: TenantId::default(),
            purpose_zipf: None,
        }
    }

    /// Run every generated session under `tenant`. The default tenant is
    /// the single-controller degenerate case and changes nothing.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Override the zipf skew constant for record/user picks and switch
    /// purpose picks from uniform to zipf-ranked (`--skew zipf:THETA`).
    /// Higher theta → hotter head; YCSB's default is 0.99.
    pub fn with_zipf_theta(mut self, theta: f64) -> Self {
        let n = self.corpus.records.max(1) as u64;
        let users = self.corpus.users.max(1) as u64;
        self.zipf_records = Zipfian::with_theta(n, theta);
        self.zipf_users = Zipfian::with_theta(users, theta);
        self.purpose_zipf = Some(Zipfian::with_theta(PURPOSES.len() as u64, theta));
        self
    }

    /// The Table 2a operation mixes.
    fn mix(kind: GdprWorkloadKind) -> Vec<(f64, OpName)> {
        use OpName::*;
        match kind {
            GdprWorkloadKind::Controller => vec![
                (25.0, Create),
                (25.0 / 3.0, DeleteByPur),
                (25.0 / 3.0, DeleteByTtl),
                (25.0 / 3.0, DeleteByUsr),
                (50.0 / 3.0, UpdateMetaByPur),
                (50.0 / 3.0, UpdateMetaByUsr),
                (50.0 / 3.0, UpdateMetaSharing),
            ],
            GdprWorkloadKind::Customer => vec![
                (20.0, ReadDataByUsr),
                (20.0, ReadMetaByKey),
                (20.0, UpdateDataByKey),
                (20.0, UpdateMetaByKey),
                (20.0, DeleteByKey),
            ],
            GdprWorkloadKind::Processor => vec![
                (80.0, ReadDataByKey),
                (20.0 / 3.0, ReadDataByPur),
                (20.0 / 3.0, ReadDataByObj),
                (20.0 / 3.0, ReadDataByDec),
            ],
            GdprWorkloadKind::Regulator => vec![
                (46.0, ReadMetaByUsr),
                (31.0, GetSystemLogs),
                (23.0, VerifyDeletion),
            ],
        }
    }

    pub fn kind(&self) -> GdprWorkloadKind {
        self.kind
    }

    fn record_index(&mut self, rng: &mut dyn rand::RngCore, zipf: bool) -> usize {
        if zipf {
            self.zipf_records.next(rng) as usize
        } else {
            self.uniform_records.next(rng) as usize
        }
    }

    fn user_index(&mut self, rng: &mut dyn rand::RngCore, zipf: bool) -> usize {
        if zipf {
            self.zipf_users.next(rng) as usize
        } else {
            self.uniform_users.next(rng) as usize
        }
    }

    fn user_name(idx: usize) -> String {
        format!("user{idx:06}")
    }

    /// A vocabulary purpose: uniform by default, zipf-ranked under skew
    /// (rank 0 = hottest purpose, mirroring the hot-key head).
    fn pick_purpose(&mut self, rng: &mut dyn rand::RngCore) -> &'static str {
        match self.purpose_zipf.as_mut() {
            Some(z) => PURPOSES[z.next(rng) as usize % PURPOSES.len()],
            None => PURPOSES[rng.next_u64() as usize % PURPOSES.len()],
        }
    }

    /// A key belonging to `user_idx`, or any record key if that user holds
    /// none in the corpus.
    fn key_of_user(&mut self, user_idx: usize, rng: &mut dyn rand::RngCore) -> (usize, String) {
        match self.user_keys.get(&user_idx).filter(|v| !v.is_empty()) {
            Some(keys) => {
                let pick = keys[(rng.next_u64() as usize) % keys.len()];
                (pick, datagen::key_of(pick))
            }
            None => {
                let i = self.record_index(rng, true);
                (i, datagen::key_of(i))
            }
        }
    }

    /// Generate the next operation with the session it executes under.
    pub fn next_op(&mut self, rng: &mut dyn rand::RngCore) -> (Session, GdprQuery) {
        use OpName::*;
        let op = *self.op_chooser.next(rng);
        let (session, query) = match op {
            // --- controller ---
            Create => {
                let idx = self.create_counter.fetch_add(1, Ordering::Relaxed) as usize;
                let record = datagen::record_of(idx, &self.corpus);
                (Session::controller(), GdprQuery::CreateRecord(record))
            }
            DeleteByPur => {
                // A *completed* purpose is a narrow cohort, not one of the
                // broad vocabulary purposes — deleting those would erase a
                // third of the store per operation and break the steady
                // state G5.1 implies (see datagen::COHORT_SIZE).
                let cohorts = (self.corpus.records / datagen::COHORT_SIZE).max(1);
                let cohort = datagen::cohort_purpose_of(
                    (rng.next_u64() as usize % cohorts) * datagen::COHORT_SIZE,
                );
                (Session::controller(), GdprQuery::DeleteByPurpose(cohort))
            }
            DeleteByTtl => (Session::controller(), GdprQuery::DeleteExpired),
            DeleteByUsr => {
                let user = Self::user_name(self.user_index(rng, false));
                (Session::controller(), GdprQuery::DeleteByUser(user))
            }
            UpdateMetaByPur => {
                let purpose = self.pick_purpose(rng);
                let party = THIRD_PARTIES[rng.next_u64() as usize % THIRD_PARTIES.len()];
                (
                    Session::controller(),
                    GdprQuery::UpdateMetadataByPurpose {
                        purpose: purpose.into(),
                        update: MetadataUpdate::Add(MetadataField::Sharing, party.into()),
                    },
                )
            }
            UpdateMetaByUsr => {
                let user = Self::user_name(self.user_index(rng, false));
                (
                    Session::controller(),
                    GdprQuery::UpdateMetadataByUser {
                        user,
                        update: MetadataUpdate::SetTtl(self.corpus.long_ttl),
                    },
                )
            }
            UpdateMetaSharing => {
                let user = Self::user_name(self.user_index(rng, false));
                let party = THIRD_PARTIES[rng.next_u64() as usize % THIRD_PARTIES.len()];
                (
                    Session::controller(),
                    GdprQuery::UpdateMetadataByUser {
                        user,
                        update: MetadataUpdate::Remove(MetadataField::Sharing, party.into()),
                    },
                )
            }

            // --- customer (zipf over users; key ops target own records) ---
            ReadDataByUsr => {
                let user = Self::user_name(self.user_index(rng, true));
                (
                    Session::customer(user.clone()),
                    GdprQuery::ReadDataByUser(user),
                )
            }
            ReadMetaByKey => {
                let user_idx = self.user_index(rng, true);
                let (_, key) = self.key_of_user(user_idx, rng);
                (
                    Session::customer(Self::user_name(user_idx)),
                    GdprQuery::ReadMetadataByKey(key),
                )
            }
            UpdateDataByKey => {
                let user_idx = self.user_index(rng, true);
                let (rec_idx, key) = self.key_of_user(user_idx, rng);
                (
                    Session::customer(Self::user_name(user_idx)),
                    GdprQuery::UpdateDataByKey {
                        key,
                        data: format!("rectified-{rec_idx:08}"),
                    },
                )
            }
            UpdateMetaByKey => {
                let user_idx = self.user_index(rng, true);
                let (_, key) = self.key_of_user(user_idx, rng);
                let purpose = self.pick_purpose(rng);
                (
                    Session::customer(Self::user_name(user_idx)),
                    GdprQuery::UpdateMetadataByKey {
                        key,
                        update: MetadataUpdate::Add(MetadataField::Objections, purpose.into()),
                    },
                )
            }
            DeleteByKey => {
                let user_idx = self.user_index(rng, true);
                let (_, key) = self.key_of_user(user_idx, rng);
                (
                    Session::customer(Self::user_name(user_idx)),
                    GdprQuery::DeleteByKey(key),
                )
            }

            // --- processor ---
            ReadDataByKey => {
                let idx = self.record_index(rng, true);
                let record = datagen::record_of(idx, &self.corpus);
                // A legitimate processor holds a purpose the record allows.
                let purpose = record
                    .metadata
                    .purposes
                    .first()
                    .cloned()
                    .unwrap_or_else(|| "ads".into());
                (
                    Session::processor(purpose),
                    GdprQuery::ReadDataByKey(datagen::key_of(idx)),
                )
            }
            ReadDataByPur => {
                let purpose = self.pick_purpose(rng);
                (
                    Session::processor(purpose),
                    GdprQuery::ReadDataByPurpose(purpose.into()),
                )
            }
            ReadDataByObj => {
                let purpose = self.pick_purpose(rng);
                (
                    Session::processor(purpose),
                    GdprQuery::ReadDataNotObjecting(purpose.into()),
                )
            }
            ReadDataByDec => {
                let purpose = self.pick_purpose(rng);
                (
                    Session::processor(purpose),
                    GdprQuery::ReadDataDecisionEligible,
                )
            }

            // --- regulator ---
            ReadMetaByUsr => {
                let user = Self::user_name(self.user_index(rng, true));
                (Session::regulator(), GdprQuery::ReadMetadataByUser(user))
            }
            GetSystemLogs => {
                // Investigations look at bounded recent windows.
                let to_ms = u64::MAX;
                (
                    Session::regulator(),
                    GdprQuery::GetSystemLogs { from_ms: 0, to_ms },
                )
            }
            VerifyDeletion => {
                let idx = self.record_index(rng, true);
                (
                    Session::regulator(),
                    GdprQuery::VerifyDeletion(datagen::key_of(idx)),
                )
            }
        };
        (session.with_tenant(self.tenant.clone()), query)
    }
}

/// The user index of record `i` (mirrors [`datagen::user_of`]).
fn user_index_of(i: usize, config: &CorpusConfig) -> usize {
    let name = datagen::user_of(i, config);
    name.trim_start_matches("user").parse().unwrap_or(0)
}

/// Load the corpus into a connector (the benchmark Load phase).
pub fn load_corpus(
    connector: &dyn gdpr_core::GdprConnector,
    corpus: &CorpusConfig,
) -> Result<(), gdpr_core::GdprError> {
    load_corpus_as(connector, corpus, &TenantId::default())
}

/// Load the corpus under one tenant's controller — the multi-tenant Load
/// phase runs this once per tenant, giving each its own full corpus.
pub fn load_corpus_as(
    connector: &dyn gdpr_core::GdprConnector,
    corpus: &CorpusConfig,
    tenant: &TenantId,
) -> Result<(), gdpr_core::GdprError> {
    let controller = Session::controller().with_tenant(tenant.clone());
    for i in 0..corpus.records {
        let record = datagen::record_of(i, corpus);
        connector.execute(&controller, &GdprQuery::CreateRecord(record))?;
    }
    Ok(())
}

/// Load the corpus under one tenant's controller into a store that may
/// already hold (part of) it — the remote-server case, where state
/// outlives the client and a re-run's load phase must top up rather than
/// fail. Key collisions are skipped; every other error still aborts.
/// Returns how many records were actually created.
pub fn load_corpus_tolerant_as(
    connector: &dyn gdpr_core::GdprConnector,
    corpus: &CorpusConfig,
    tenant: &TenantId,
) -> Result<usize, gdpr_core::GdprError> {
    let controller = Session::controller().with_tenant(tenant.clone());
    let mut created = 0;
    for i in 0..corpus.records {
        let record = datagen::record_of(i, corpus);
        match connector.execute(&controller, &GdprQuery::CreateRecord(record)) {
            Ok(_) => created += 1,
            Err(gdpr_core::GdprError::AlreadyExists(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(created)
}

/// A corpus whose records never expire mid-benchmark (long TTLs), for
/// workload runs where expiry-induced churn would confound completion time.
pub fn stable_corpus(records: usize) -> CorpusConfig {
    CorpusConfig {
        records,
        // Few records per subject, so user-scoped deletes stay bounded and
        // the corpus holds its size across a controller run.
        users: (records / 3).max(1),
        short_ttl: Duration::from_secs(3_600),
        long_ttl: Duration::from_secs(30 * 24 * 3_600),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdpr_core::role::Role;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ops(kind: GdprWorkloadKind, n: usize) -> Vec<(Session, GdprQuery)> {
        let corpus = stable_corpus(500);
        let counter = Arc::new(AtomicU64::new(corpus.records as u64));
        let mut w = GdprWorkload::new(kind, corpus, counter);
        let mut rng = SmallRng::seed_from_u64(3);
        (0..n).map(|_| w.next_op(&mut rng)).collect()
    }

    fn fraction(ops: &[(Session, GdprQuery)], name: &str) -> f64 {
        ops.iter().filter(|(_, q)| q.name() == name).count() as f64 / ops.len() as f64
    }

    #[test]
    fn controller_mix_matches_table2a() {
        let ops = ops(GdprWorkloadKind::Controller, 20_000);
        assert!(ops.iter().all(|(s, _)| s.role == Role::Controller));
        let create = fraction(&ops, "create-record");
        assert!((0.23..0.27).contains(&create), "create {create}");
        let deletes = fraction(&ops, "delete-record-by-pur")
            + fraction(&ops, "delete-record-by-ttl")
            + fraction(&ops, "delete-record-by-usr");
        assert!((0.23..0.27).contains(&deletes), "deletes {deletes}");
        let updates =
            fraction(&ops, "update-metadata-by-pur") + fraction(&ops, "update-metadata-by-usr");
        assert!((0.48..0.52).contains(&updates), "updates {updates}");
    }

    #[test]
    fn customer_mix_is_five_way_even() {
        let ops = ops(GdprWorkloadKind::Customer, 20_000);
        assert!(ops.iter().all(|(s, _)| s.role == Role::Customer));
        for name in [
            "read-data-by-usr",
            "read-metadata-by-key",
            "update-data-by-key",
            "update-metadata-by-key",
            "delete-record-by-key",
        ] {
            let f = fraction(&ops, name);
            assert!((0.17..0.23).contains(&f), "{name} {f}");
        }
    }

    #[test]
    fn customer_sessions_own_their_keys() {
        // Key-scoped customer ops must target the session user's own records
        // whenever that user holds any (otherwise the ACL would deny and the
        // workload would measure only failures). Users holding no records —
        // possible since the corpus hashes records onto users — fall back to
        // an arbitrary key, whose denial both store and oracle predict.
        let corpus = stable_corpus(500);
        let mut owners: std::collections::HashSet<String> = Default::default();
        for i in 0..corpus.records {
            owners.insert(datagen::user_of(i, &corpus));
        }
        let mut owned_ops = 0;
        for (session, query) in ops(GdprWorkloadKind::Customer, 2000) {
            if let GdprQuery::ReadMetadataByKey(key) = query {
                let user = session.user.as_deref().unwrap();
                if owners.contains(user) {
                    let idx = usize::from_str_radix(key.trim_start_matches("ph-"), 16).unwrap();
                    assert_eq!(datagen::user_of(idx, &corpus), user);
                    owned_ops += 1;
                }
            }
        }
        assert!(owned_ops > 100, "ownership path must dominate: {owned_ops}");
    }

    #[test]
    fn processor_mix_is_read_heavy() {
        let ops = ops(GdprWorkloadKind::Processor, 20_000);
        assert!(ops.iter().all(|(s, _)| s.role == Role::Processor));
        assert!(ops
            .iter()
            .all(|(_, q)| !q.is_write() || q.name() == "update-metadata-by-key"));
        let by_key = fraction(&ops, "read-data-by-key");
        assert!((0.77..0.83).contains(&by_key), "by-key {by_key}");
    }

    #[test]
    fn regulator_mix_matches_edpb_report() {
        let ops = ops(GdprWorkloadKind::Regulator, 20_000);
        assert!(ops.iter().all(|(s, _)| s.role == Role::Regulator));
        let meta = fraction(&ops, "read-metadata-by-usr");
        let logs = fraction(&ops, "get-system-logs");
        let verify = fraction(&ops, "verify-deletion");
        assert!((0.43..0.49).contains(&meta), "meta {meta}");
        assert!((0.28..0.34).contains(&logs), "logs {logs}");
        assert!((0.20..0.26).contains(&verify), "verify {verify}");
    }

    #[test]
    fn controller_creates_use_fresh_keys() {
        let creates: Vec<String> = ops(GdprWorkloadKind::Controller, 5000)
            .into_iter()
            .filter_map(|(_, q)| match q {
                GdprQuery::CreateRecord(r) => Some(r.key),
                _ => None,
            })
            .collect();
        let unique: std::collections::HashSet<_> = creates.iter().collect();
        assert_eq!(unique.len(), creates.len());
        // All beyond the preloaded range.
        for key in &creates {
            let idx = usize::from_str_radix(key.trim_start_matches("ph-"), 16).unwrap();
            assert!(idx >= 500);
        }
    }

    #[test]
    fn tenant_rides_on_every_generated_session() {
        let corpus = stable_corpus(200);
        let tenant = TenantId::new("acme").unwrap();
        for kind in GdprWorkloadKind::ALL {
            let counter = Arc::new(AtomicU64::new(corpus.records as u64));
            let mut w =
                GdprWorkload::new(kind, corpus.clone(), counter).with_tenant(tenant.clone());
            let mut rng = SmallRng::seed_from_u64(11);
            for _ in 0..200 {
                let (session, _) = w.next_op(&mut rng);
                assert_eq!(session.tenant, tenant);
            }
        }
        // And the default stays the degenerate single-tenant case.
        let counter = Arc::new(AtomicU64::new(corpus.records as u64));
        let mut w = GdprWorkload::new(GdprWorkloadKind::Customer, corpus, counter);
        let mut rng = SmallRng::seed_from_u64(11);
        let (session, _) = w.next_op(&mut rng);
        assert!(session.tenant.is_default());
    }

    #[test]
    fn zipf_skew_ranks_purposes_and_keeps_keys_in_range() {
        let corpus = stable_corpus(500);
        let counter = Arc::new(AtomicU64::new(corpus.records as u64));
        let mut w =
            GdprWorkload::new(GdprWorkloadKind::Processor, corpus, counter).with_zipf_theta(1.2);
        let mut rng = SmallRng::seed_from_u64(23);
        let mut purpose_picks = 0usize;
        let mut hottest = 0usize;
        for _ in 0..20_000 {
            let (_, query) = w.next_op(&mut rng);
            if let GdprQuery::ReadDataByPurpose(p) = &query {
                purpose_picks += 1;
                if p == PURPOSES[0] {
                    hottest += 1;
                }
            }
            if let GdprQuery::ReadDataByKey(key) = &query {
                let idx = usize::from_str_radix(key.trim_start_matches("ph-"), 16).unwrap();
                assert!(idx < 500, "skewed pick out of corpus range: {idx}");
            }
        }
        // Under uniform picking each purpose gets ~1/|PURPOSES| of the
        // draws; zipf(1.2) concentrates ~40% on rank 0.
        assert!(purpose_picks > 200, "too few purpose ops: {purpose_picks}");
        let head = hottest as f64 / purpose_picks as f64;
        assert!(
            head > 2.0 / PURPOSES.len() as f64,
            "purpose skew too weak: {head}"
        );
    }

    #[test]
    fn load_corpus_populates_connector() {
        let conn = connectors::RedisConnector::new(
            kvstore::KvStore::open(kvstore::KvConfig::default()).unwrap(),
        );
        let corpus = stable_corpus(100);
        load_corpus(&conn, &corpus).unwrap();
        assert_eq!(gdpr_core::GdprConnector::record_count(&conn), 100);
    }
}
