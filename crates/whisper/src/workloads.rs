//! Deterministic workload generators (Table 1, third column).
//!
//! Each generator reproduces the operation mix and skew of the driver
//! the paper used — YCSB and TPC-C "simple implementations ... shipped
//! with N-store", `redis-cli lru-test`, `memslap`, filebench's
//! `fileserver` profile, `postal`, and sysbench `OLTP-complex` — as a
//! seeded iterator of operations, so every run of the suite is
//! reproducible.

use pmrand::{Rng, SeedableRng, SmallRng};

/// Zipfian key sampler (YCSB's default request distribution).
///
/// Uses the standard harmonic-number construction with exponent
/// `theta`; sampling is a binary search over the precomputed CDF. Each
/// generator builds its own O(n) table: a run builds a few dozen, over
/// at most 40 000 keys each.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A distribution over `n` keys with skew `theta` (0 = uniform,
    /// YCSB uses 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "need at least one key");
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
            cdf.push(sum);
        }
        for v in &mut cdf {
            *v /= sum;
        }
        Zipf { cdf }
    }

    /// Sample a key index in `0..n`.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One YCSB operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YcsbOp {
    /// Read a row.
    Read {
        /// Key index.
        key: u64,
    },
    /// Update some of a row's fields.
    Update {
        /// Key index.
        key: u64,
        /// Fields to overwrite (out of 10).
        fields: u8,
    },
    /// Insert a fresh row.
    Insert {
        /// Key index.
        key: u64,
    },
}

/// YCSB-like stream: zipfian keys, `write_pct` percent updates/inserts
/// (Table 1 runs N-store at 80 % writes).
pub fn ycsb(n_keys: usize, ops: usize, write_pct: u32, seed: u64) -> Vec<YcsbOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = Zipf::new(n_keys, 0.99);
    (0..ops)
        .map(|_| {
            let key = zipf.sample(&mut rng) as u64;
            if rng.gen_range(0u32..100) < write_pct {
                if rng.gen_range(0..10) == 0 {
                    YcsbOp::Insert {
                        key: key + n_keys as u64,
                    }
                } else {
                    YcsbOp::Update {
                        key,
                        fields: rng.gen_range(4..=10),
                    }
                }
            } else {
                YcsbOp::Read { key }
            }
        })
        .collect()
}

/// One TPC-C-like transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpccTx {
    /// Insert an order with `items` order lines, updating stock rows.
    NewOrder {
        /// Customer key.
        customer: u64,
        /// Order-line item keys.
        items: Vec<u64>,
    },
    /// Update a customer's balance and the district totals.
    Payment {
        /// Customer key.
        customer: u64,
        /// Payment amount (cents).
        amount: u64,
    },
    /// Read a customer's latest order (read-only).
    OrderStatus {
        /// Customer key.
        customer: u64,
    },
}

/// TPC-C-like stream at roughly the paper's 40 %-write mix: the
/// classic 45/43/12 NewOrder/Payment/OrderStatus split over one
/// warehouse per client.
pub fn tpcc(n_customers: usize, n_items: usize, txs: usize, seed: u64) -> Vec<TpccTx> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..txs)
        .map(|_| {
            let customer = rng.gen_range(0..n_customers) as u64;
            match rng.gen_range(0..100) {
                0..=44 => TpccTx::NewOrder {
                    customer,
                    items: (0..rng.gen_range(5..=15))
                        .map(|_| rng.gen_range(0..n_items) as u64)
                        .collect(),
                },
                45..=87 => TpccTx::Payment {
                    customer,
                    amount: rng.gen_range(100..100_000),
                },
                _ => TpccTx::OrderStatus { customer },
            }
        })
        .collect()
}

/// One memslap operation (Memcached's load generator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemslapOp {
    /// `get key`.
    Get {
        /// Key index.
        key: u64,
    },
    /// `set key value`.
    Set {
        /// Key index.
        key: u64,
        /// Value size in bytes.
        vsize: usize,
    },
}

/// memslap stream: zipfian keys, `set_pct` percent SETs (Table 1: 5 %).
pub fn memslap(n_keys: usize, ops: usize, set_pct: u32, seed: u64) -> Vec<MemslapOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = Zipf::new(n_keys, 0.9);
    (0..ops)
        .map(|_| {
            let key = zipf.sample(&mut rng) as u64;
            if rng.gen_range(0u32..100) < set_pct {
                MemslapOp::Set {
                    key,
                    vsize: rng.gen_range(32..=256),
                }
            } else {
                MemslapOp::Get { key }
            }
        })
        .collect()
}

/// One redis lru-test operation: GET a key from a space larger than
/// the cache, SET it on a miss — `redis-cli --lru-test` simulates a
/// cache under eviction pressure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruTestOp {
    /// Key index, drawn with a power-law bias toward recent keys.
    pub key: u64,
    /// Value size for the SET-on-miss path.
    pub vsize: usize,
}

/// redis lru-test stream over `n_keys` keys.
pub fn lru_test(n_keys: usize, ops: usize, seed: u64) -> Vec<LruTestOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = Zipf::new(n_keys, 0.8);
    (0..ops)
        .map(|_| LruTestOp {
            key: zipf.sample(&mut rng) as u64,
            vsize: 64,
        })
        .collect()
}

/// One filebench `fileserver`-profile operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileserverOp {
    /// Create a file and write it whole.
    CreateWrite {
        /// File id within the working set.
        file: u64,
        /// Bytes to write.
        size: usize,
    },
    /// Append to an existing file.
    Append {
        /// File id.
        file: u64,
        /// Bytes to append.
        size: usize,
    },
    /// Read a whole file.
    ReadWhole {
        /// File id.
        file: u64,
    },
    /// `stat` a file.
    Stat {
        /// File id.
        file: u64,
    },
    /// Delete a file.
    Delete {
        /// File id.
        file: u64,
    },
}

/// fileserver profile: create/write, append, read, stat, delete in
/// filebench's characteristic 1:1:1:1:1-ish loop over a working set.
pub fn fileserver(n_files: usize, ops: usize, mean_size: usize, seed: u64) -> Vec<FileserverOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            let file = rng.gen_range(0..n_files) as u64;
            let size = rng.gen_range(mean_size / 2..=mean_size * 2);
            match rng.gen_range(0..100) {
                0..=24 => FileserverOp::CreateWrite { file, size },
                25..=44 => FileserverOp::Append {
                    file,
                    size: size / 4,
                },
                45..=69 => FileserverOp::ReadWhole { file },
                70..=89 => FileserverOp::Stat { file },
                _ => FileserverOp::Delete { file },
            }
        })
        .collect()
}

/// One postal delivery: a message of `size` bytes for `mailbox`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostalMsg {
    /// Mailbox index (Table 1: 250 mailboxes).
    pub mailbox: u64,
    /// Message size in bytes (Table 1: 100 KB messages).
    pub size: usize,
}

/// postal stream: uniform mailboxes, log-normal-ish sizes around
/// `mean_size`.
pub fn postal(n_mailboxes: usize, msgs: usize, mean_size: usize, seed: u64) -> Vec<PostalMsg> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..msgs)
        .map(|_| PostalMsg {
            mailbox: rng.gen_range(0..n_mailboxes) as u64,
            size: rng.gen_range(mean_size / 2..=mean_size * 2),
        })
        .collect()
}

/// One sysbench OLTP-complex transaction (10 point selects, a range
/// scan, 2 index updates, and an insert+delete pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OltpTx {
    /// Rows for the point selects.
    pub point_selects: Vec<u64>,
    /// Range-scan start row and length.
    pub range: (u64, u64),
    /// Rows to update.
    pub updates: Vec<u64>,
    /// Row to insert then delete.
    pub insert_delete: u64,
}

/// sysbench OLTP-complex stream over a table of `n_rows`.
pub fn oltp(n_rows: usize, txs: usize, seed: u64) -> Vec<OltpTx> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..txs)
        .map(|_| OltpTx {
            point_selects: (0..10).map(|_| rng.gen_range(0..n_rows) as u64).collect(),
            range: (rng.gen_range(0..n_rows) as u64, rng.gen_range(10..=100)),
            updates: (0..2).map(|_| rng.gen_range(0..n_rows) as u64).collect(),
            insert_delete: rng.gen_range(0..n_rows) as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[500] * 5, "head much hotter than tail");
        // Determinism:
        let mut rng2 = SmallRng::seed_from_u64(1);
        let first: Vec<usize> = (0..10).map(|_| z.sample(&mut rng2)).collect();
        let mut rng3 = SmallRng::seed_from_u64(1);
        let second: Vec<usize> = (0..10).map(|_| z.sample(&mut rng3)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn ycsb_write_fraction_close_to_requested() {
        let ops = ycsb(1000, 10_000, 80, 7);
        let writes = ops
            .iter()
            .filter(|o| !matches!(o, YcsbOp::Read { .. }))
            .count();
        let frac = writes as f64 / ops.len() as f64;
        assert!((frac - 0.8).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn tpcc_mix_matches_split() {
        let txs = tpcc(100, 1000, 10_000, 3);
        let orders = txs
            .iter()
            .filter(|t| matches!(t, TpccTx::NewOrder { .. }))
            .count();
        let frac = orders as f64 / txs.len() as f64;
        assert!((frac - 0.45).abs() < 0.02);
        for t in &txs {
            if let TpccTx::NewOrder { items, .. } = t {
                assert!((5..=15).contains(&items.len()));
            }
        }
    }

    #[test]
    fn memslap_set_fraction() {
        let ops = memslap(1000, 10_000, 5, 11);
        let sets = ops
            .iter()
            .filter(|o| matches!(o, MemslapOp::Set { .. }))
            .count();
        let frac = sets as f64 / ops.len() as f64;
        assert!((frac - 0.05).abs() < 0.01, "set fraction {frac}");
    }

    #[test]
    fn fileserver_covers_all_op_kinds() {
        let ops = fileserver(100, 5000, 16_384, 5);
        let kinds: std::collections::HashSet<u8> = ops
            .iter()
            .map(|o| match o {
                FileserverOp::CreateWrite { .. } => 0,
                FileserverOp::Append { .. } => 1,
                FileserverOp::ReadWhole { .. } => 2,
                FileserverOp::Stat { .. } => 3,
                FileserverOp::Delete { .. } => 4,
            })
            .collect();
        assert_eq!(kinds.len(), 5);
    }

    #[test]
    fn postal_sizes_bracket_mean() {
        let msgs = postal(250, 1000, 8192, 9);
        assert!(msgs.iter().all(|m| m.size >= 4096 && m.size <= 16_384));
        assert!(msgs.iter().all(|m| m.mailbox < 250));
    }

    #[test]
    fn oltp_shape() {
        let txs = oltp(10_000, 100, 13);
        for t in &txs {
            assert_eq!(t.point_selects.len(), 10);
            assert_eq!(t.updates.len(), 2);
            assert!(t.range.1 >= 10 && t.range.1 <= 100);
        }
    }

    #[test]
    fn generators_are_seed_deterministic() {
        assert_eq!(ycsb(100, 50, 80, 42), ycsb(100, 50, 80, 42));
        assert_eq!(tpcc(10, 100, 50, 42), tpcc(10, 100, 50, 42));
        assert_eq!(memslap(100, 50, 5, 42), memslap(100, 50, 5, 42));
        assert_eq!(lru_test(100, 50, 42), lru_test(100, 50, 42));
        assert_eq!(fileserver(10, 50, 1024, 42), fileserver(10, 50, 1024, 42));
        assert_eq!(postal(10, 50, 1024, 42), postal(10, 50, 1024, 42));
        assert_eq!(oltp(100, 50, 42), oltp(100, 50, 42));
    }
}
