//! Transactions and replayable traces.
//!
//! The controller consumes a flat stream of [`Transaction`]s — bank, cell
//! address, read or write. A [`Trace`] is such a stream frozen into a value:
//! it can be generated synthetically (see [`crate::workload`]), saved to CSV,
//! reloaded, and replayed bit-identically against any controller
//! configuration, which is what makes scheme-vs-scheme comparisons fair
//! (every scheme sees the exact same traffic).
//!
//! Transactions optionally carry an **arrival timestamp** (nanoseconds from
//! the start of the run). [`Controller::run`](crate::Controller::run)
//! ignores it — serial replay is zero-queueing by construction — but the
//! event-driven [`sched`](crate::sched) frontend admits each transaction at
//! its arrival time, which is what turns a trace into an offered load. The
//! CSV dialect grows a sixth `arrival_ns` column only when a trace is timed,
//! so untimed traces round-trip through the original five-column format.
//!
//! Two on-disk formats exist. CSV is the human-readable interchange format;
//! the **binary format** ([`Trace::to_binary`]/[`Trace::from_binary`], laid
//! out in DESIGN.md §12) is the fast path: fixed-stride little-endian
//! records that a [`TraceView`] can replay **zero-copy** straight out of a
//! borrowed `&[u8]` (e.g. an mmap-ed file) without materialising a
//! `Vec<Transaction>`. Everything that replays traffic is generic over
//! [`TxnSource`], so owned traces and borrowed views drive the engines
//! through the same code path and produce bit-identical results.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use stt_array::Address;

/// What a transaction asks the controller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Sense the stored bit and return it.
    Read,
    /// Program the given bit.
    Write(bool),
}

impl Op {
    /// `true` for [`Op::Read`].
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, Op::Read)
    }
}

/// One memory transaction: an operation against one cell of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Transaction {
    /// Target bank index (`0..banks`).
    pub bank: usize,
    /// Cell address within the bank.
    pub addr: Address,
    /// The operation.
    pub op: Op,
    /// Arrival time in nanoseconds from the start of the run. `0` for
    /// untimed traces; serial replay ignores it entirely.
    pub arrival_ns: u64,
}

impl Transaction {
    /// A read of `addr` on `bank`, arriving at time zero.
    #[must_use]
    pub fn read(bank: usize, addr: Address) -> Self {
        Self {
            bank,
            addr,
            op: Op::Read,
            arrival_ns: 0,
        }
    }

    /// A write of `bit` to `addr` on `bank`, arriving at time zero.
    #[must_use]
    pub fn write(bank: usize, addr: Address, bit: bool) -> Self {
        Self {
            bank,
            addr,
            op: Op::Write(bit),
            arrival_ns: 0,
        }
    }

    /// Stamps an arrival time (nanoseconds) onto the transaction.
    #[must_use]
    pub fn at(mut self, arrival_ns: u64) -> Self {
        self.arrival_ns = arrival_ns;
        self
    }
}

/// A replayable, ordered stream of transactions.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    transactions: Vec<Transaction>,
}

/// A malformed line met while parsing a [`Trace`] from CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong with it.
    pub kind: TraceParseErrorKind,
}

/// The ways a trace CSV record can be malformed. Each variant carries the
/// offending text verbatim, so a caller can point at the exact column
/// instead of grepping a prose message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseErrorKind {
    /// Wrong number of comma-separated fields (truncated or overlong row).
    FieldCount {
        /// How many fields the record actually had.
        got: usize,
    },
    /// A numeric column failed to parse.
    BadNumber {
        /// Which column (`"bank"`, `"row"`, `"col"`, `"arrival_ns"`).
        column: &'static str,
        /// The text that failed to parse.
        value: String,
    },
    /// The `op`/`bit` pair is not one of `R,` / `W,0` / `W,1`.
    BadOp {
        /// The `op` field as written.
        op: String,
        /// The `bit` field as written.
        bit: String,
    },
}

impl TraceParseErrorKind {
    /// The column the error anchors to, as named in the CSV header
    /// ([`TraceParseErrorKind::FieldCount`] has no single column and
    /// returns `None`; a bad op/bit pair anchors to `"op"`).
    #[must_use]
    pub fn column(&self) -> Option<&'static str> {
        match self {
            TraceParseErrorKind::FieldCount { .. } => None,
            TraceParseErrorKind::BadNumber { column, .. } => Some(column),
            TraceParseErrorKind::BadOp { .. } => Some("op"),
        }
    }
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: ", self.line)?;
        match &self.kind {
            TraceParseErrorKind::FieldCount { got } => {
                write!(f, "expected 5 or 6 fields, got {got}")
            }
            TraceParseErrorKind::BadNumber { column, value } => {
                write!(f, "bad {column} {value:?}")
            }
            TraceParseErrorKind::BadOp { op, bit } => {
                write!(f, "bad op/bit pair {op:?}/{bit:?}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing transaction list.
    #[must_use]
    pub fn from_transactions(transactions: Vec<Transaction>) -> Self {
        Self { transactions }
    }

    /// Appends a transaction.
    pub fn push(&mut self, txn: Transaction) {
        self.transactions.push(txn);
    }

    /// Number of transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// `true` when the trace holds no transactions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The transactions, in replay order.
    #[must_use]
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Count of read transactions.
    #[must_use]
    pub fn reads(&self) -> usize {
        self.transactions.iter().filter(|t| t.op.is_read()).count()
    }

    /// `true` when any transaction carries a non-zero arrival time.
    #[must_use]
    pub fn is_timed(&self) -> bool {
        self.transactions.iter().any(|t| t.arrival_ns != 0)
    }

    /// Stamps Poisson (exponential-gap) arrival times onto the trace, in
    /// order: transaction `k` arrives `Exp(mean_gap_ns)` after transaction
    /// `k − 1`. Arrivals are therefore non-decreasing in trace order, which
    /// is the precondition for the FCFS-frontend ≡ serial-replay identity
    /// (see [`crate::sched`]).
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap_ns` is not finite and positive.
    #[must_use]
    pub fn with_poisson_arrivals(mut self, mean_gap_ns: f64, rng: &mut StdRng) -> Self {
        assert!(
            mean_gap_ns.is_finite() && mean_gap_ns > 0.0,
            "mean inter-arrival gap must be positive, got {mean_gap_ns}"
        );
        let mut now = 0.0f64;
        for txn in &mut self.transactions {
            // Inverse-CDF exponential sample; `1 - u` keeps ln() finite.
            let u: f64 = rng.gen();
            now += -(1.0 - u).ln() * mean_gap_ns;
            txn.arrival_ns = now.round() as u64;
        }
        self
    }

    /// Serialises to the trace CSV dialect: a `bank,row,col,op,bit` header
    /// followed by one record per transaction (`op` is `R` or `W`; `bit` is
    /// empty for reads). A timed trace (see [`Trace::is_timed`]) appends an
    /// `arrival_ns` column; an untimed trace keeps the original five-column
    /// format so old files round-trip byte-identically.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let timed = self.is_timed();
        let mut out = String::from(if timed {
            "bank,row,col,op,bit,arrival_ns\n"
        } else {
            "bank,row,col,op,bit\n"
        });
        for txn in &self.transactions {
            let (op, bit) = match txn.op {
                Op::Read => ("R", String::new()),
                Op::Write(bit) => ("W", u8::from(bit).to_string()),
            };
            out.push_str(&format!(
                "{},{},{},{op},{bit}",
                txn.bank, txn.addr.row, txn.addr.col
            ));
            if timed {
                out.push_str(&format!(",{}", txn.arrival_ns));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the CSV dialect written by [`Trace::to_csv`]. A leading header
    /// line is accepted and skipped; blank lines are ignored. Both formats
    /// are accepted — five fields per record (untimed; arrival defaults to
    /// zero) or six (`arrival_ns` last) — and may be mixed line by line.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] naming the first malformed line and —
    /// via [`TraceParseErrorKind`] — the offending column and text.
    pub fn from_csv(text: &str) -> Result<Self, TraceParseError> {
        let mut transactions = Vec::new();
        for (index, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (index == 0 && line.starts_with("bank")) {
                continue;
            }
            let err = |kind: TraceParseErrorKind| TraceParseError {
                line: index + 1,
                kind,
            };
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 5 && fields.len() != 6 {
                return Err(err(TraceParseErrorKind::FieldCount { got: fields.len() }));
            }
            let parse = |field: &str, column: &'static str| {
                field.parse::<usize>().map_err(|_| {
                    err(TraceParseErrorKind::BadNumber {
                        column,
                        value: field.to_string(),
                    })
                })
            };
            let bank = parse(fields[0], "bank")?;
            let addr = Address::new(parse(fields[1], "row")?, parse(fields[2], "col")?);
            let op = match (fields[3], fields[4]) {
                ("R", "") => Op::Read,
                ("W", "0") => Op::Write(false),
                ("W", "1") => Op::Write(true),
                (op, bit) => {
                    return Err(err(TraceParseErrorKind::BadOp {
                        op: op.to_string(),
                        bit: bit.to_string(),
                    }))
                }
            };
            let arrival_ns = match fields.get(5) {
                Some(field) => field.parse::<u64>().map_err(|_| {
                    err(TraceParseErrorKind::BadNumber {
                        column: "arrival_ns",
                        value: field.to_string(),
                    })
                })?,
                None => 0,
            };
            transactions.push(Transaction {
                bank,
                addr,
                op,
                arrival_ns,
            });
        }
        Ok(Self { transactions })
    }
}

/// Read access to an ordered transaction stream.
///
/// Implemented by the owned [`Trace`] and the zero-copy [`TraceView`]; every
/// replay engine ([`Controller::run`](crate::Controller::run), the
/// [`sched`](crate::sched) frontend, the [`hierarchy`](crate::hierarchy)
/// chip) is generic over this trait, so both representations run through
/// identical code and produce bit-identical results. `Sync`, so bank
/// workers can share one source while each serves its own banks.
pub trait TxnSource: Sync {
    /// Number of transactions in the stream.
    fn len(&self) -> usize;

    /// The `index`-th transaction, decoded by value.
    ///
    /// # Panics
    /// Panics when `index >= len()`.
    fn get(&self, index: usize) -> Transaction;

    /// `true` when the stream holds no transactions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TxnSource for Trace {
    fn len(&self) -> usize {
        self.transactions.len()
    }

    fn get(&self, index: usize) -> Transaction {
        self.transactions[index]
    }
}

/// Binary trace magic: the first four bytes of every binary trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"STTR";
/// Binary trace format version written by [`Trace::to_binary`].
pub const TRACE_BINARY_VERSION: u8 = 1;
/// Header size in bytes: magic (4) + version (1) + flags (1) + reserved (2)
/// + record count u64 LE (8).
pub const TRACE_HEADER_BYTES: usize = 16;
/// Fixed record stride in bytes: bank u32, row u32, col u32, op u8,
/// padding ×3, arrival_ns u64 — all little-endian.
pub const TRACE_RECORD_BYTES: usize = 24;

const OP_READ: u8 = 0;
const OP_WRITE_ZERO: u8 = 1;
const OP_WRITE_ONE: u8 = 2;

/// A malformed binary trace buffer. Unlike CSV parse errors these are typed
/// on the *structural* failure — a truncated header, a body that is not a
/// whole number of records, an op byte outside the encoding — because binary
/// traces are machine-written and any damage means the file, not a line, is
/// suspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceBinaryError {
    /// Shorter than the 16-byte header.
    Truncated {
        /// Actual buffer length in bytes.
        got: usize,
    },
    /// The first four bytes are not [`TRACE_MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        got: [u8; 4],
    },
    /// Unknown format version byte.
    BadVersion {
        /// The version byte actually found.
        got: u8,
    },
    /// The body is not a whole number of 24-byte records.
    Misaligned {
        /// Body length in bytes (buffer length minus the header).
        body_bytes: usize,
    },
    /// The header's record count disagrees with the body length.
    CountMismatch {
        /// Record count claimed by the header.
        header: u64,
        /// Whole records actually present in the body.
        body: usize,
    },
    /// A record's op byte is outside the `{0, 1, 2}` encoding.
    BadOp {
        /// 0-based index of the offending record.
        record: usize,
        /// The op byte actually found.
        code: u8,
    },
}

impl std::fmt::Display for TraceBinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceBinaryError::Truncated { got } => {
                write!(
                    f,
                    "binary trace truncated: {got} bytes < {TRACE_HEADER_BYTES}-byte header"
                )
            }
            TraceBinaryError::BadMagic { got } => {
                write!(
                    f,
                    "bad binary trace magic {got:?} (expected {TRACE_MAGIC:?})"
                )
            }
            TraceBinaryError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported binary trace version {got} (expected {TRACE_BINARY_VERSION})"
                )
            }
            TraceBinaryError::Misaligned { body_bytes } => {
                write!(
                    f,
                    "binary trace body misaligned: {body_bytes} bytes is not a multiple of {TRACE_RECORD_BYTES}"
                )
            }
            TraceBinaryError::CountMismatch { header, body } => {
                write!(
                    f,
                    "binary trace header claims {header} records, body holds {body}"
                )
            }
            TraceBinaryError::BadOp { record, code } => {
                write!(f, "binary trace record {record}: bad op byte {code}")
            }
        }
    }
}

impl std::error::Error for TraceBinaryError {}

/// A zero-copy view over a binary trace buffer.
///
/// [`TraceView::new`] validates the whole buffer once — header, alignment,
/// record count, every op byte — so that [`TxnSource::get`] is an infallible
/// constant-time decode of four little-endian loads. The view borrows the
/// bytes; nothing is copied until a [`Transaction`] is decoded on demand.
///
/// ```
/// use stt_ctrl::{Trace, TraceView, Transaction, TxnSource};
/// use stt_array::Address;
///
/// let trace = Trace::from_transactions(vec![
///     Transaction::read(0, Address::new(1, 2)).at(5),
/// ]);
/// let bytes = trace.to_binary();
/// let view = TraceView::new(&bytes).unwrap();
/// assert_eq!(view.len(), 1);
/// assert_eq!(view.get(0), trace.get(0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    /// Record bytes only (header stripped during validation).
    body: &'a [u8],
    len: usize,
}

impl<'a> TraceView<'a> {
    /// Validates `bytes` as a binary trace and wraps it without copying.
    ///
    /// # Errors
    /// Returns a [`TraceBinaryError`] describing the first structural
    /// problem: short buffer, wrong magic/version, a body that is not a
    /// whole number of records, a count mismatch, or an invalid op byte.
    pub fn new(bytes: &'a [u8]) -> Result<Self, TraceBinaryError> {
        if bytes.len() < TRACE_HEADER_BYTES {
            return Err(TraceBinaryError::Truncated { got: bytes.len() });
        }
        let magic: [u8; 4] = bytes[..4].try_into().expect("4-byte slice");
        if magic != TRACE_MAGIC {
            return Err(TraceBinaryError::BadMagic { got: magic });
        }
        if bytes[4] != TRACE_BINARY_VERSION {
            return Err(TraceBinaryError::BadVersion { got: bytes[4] });
        }
        let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        let body = &bytes[TRACE_HEADER_BYTES..];
        if !body.len().is_multiple_of(TRACE_RECORD_BYTES) {
            return Err(TraceBinaryError::Misaligned {
                body_bytes: body.len(),
            });
        }
        let records = body.len() / TRACE_RECORD_BYTES;
        if count != records as u64 {
            return Err(TraceBinaryError::CountMismatch {
                header: count,
                body: records,
            });
        }
        for record in 0..records {
            let code = body[record * TRACE_RECORD_BYTES + 12];
            if code > OP_WRITE_ONE {
                return Err(TraceBinaryError::BadOp { record, code });
            }
        }
        Ok(Self { body, len: records })
    }

    /// Iterates the transactions, decoding each on demand.
    pub fn iter(&self) -> impl Iterator<Item = Transaction> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Copies the view into an owned [`Trace`].
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        Trace::from_transactions(self.iter().collect())
    }
}

impl TxnSource for TraceView<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, index: usize) -> Transaction {
        assert!(
            index < self.len,
            "record {index} out of range ({})",
            self.len
        );
        let r = &self.body[index * TRACE_RECORD_BYTES..(index + 1) * TRACE_RECORD_BYTES];
        let word = |o: usize| u32::from_le_bytes(r[o..o + 4].try_into().expect("4-byte slice"));
        let op = match r[12] {
            OP_READ => Op::Read,
            OP_WRITE_ZERO => Op::Write(false),
            OP_WRITE_ONE => Op::Write(true),
            // `new()` validated every op byte.
            code => unreachable!("op byte {code} survived validation"),
        };
        Transaction {
            bank: word(0) as usize,
            addr: Address::new(word(4) as usize, word(8) as usize),
            op,
            arrival_ns: u64::from_le_bytes(r[16..24].try_into().expect("8-byte slice")),
        }
    }
}

impl Trace {
    /// Serialises to the fixed-stride binary format (DESIGN.md §12): a
    /// 16-byte header (magic `STTR`, version, flags, reserved, record count
    /// u64 LE) followed by one 24-byte little-endian record per transaction.
    /// The result always round-trips losslessly through
    /// [`Trace::from_binary`], timed or not.
    ///
    /// # Panics
    /// Panics when a bank, row or column index exceeds `u32::MAX` — the
    /// binary format stores them as 32-bit words, which comfortably covers
    /// every geometry the chip model can express.
    #[must_use]
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TRACE_HEADER_BYTES + TRACE_RECORD_BYTES * self.len());
        out.extend_from_slice(&TRACE_MAGIC);
        out.push(TRACE_BINARY_VERSION);
        out.push(0); // flags
        out.extend_from_slice(&[0, 0]); // reserved
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        let narrow = |value: usize, what: &str| {
            u32::try_from(value).unwrap_or_else(|_| panic!("{what} {value} exceeds u32 range"))
        };
        for txn in &self.transactions {
            out.extend_from_slice(&narrow(txn.bank, "bank").to_le_bytes());
            out.extend_from_slice(&narrow(txn.addr.row, "row").to_le_bytes());
            out.extend_from_slice(&narrow(txn.addr.col, "col").to_le_bytes());
            let op = match txn.op {
                Op::Read => OP_READ,
                Op::Write(false) => OP_WRITE_ZERO,
                Op::Write(true) => OP_WRITE_ONE,
            };
            out.extend_from_slice(&[op, 0, 0, 0]);
            out.extend_from_slice(&txn.arrival_ns.to_le_bytes());
        }
        out
    }

    /// Parses the binary format written by [`Trace::to_binary`] into an
    /// owned trace. Use [`TraceView::new`] instead to replay straight from
    /// the buffer without materialising the `Vec`.
    ///
    /// # Errors
    /// Returns a [`TraceBinaryError`] on any structural damage (see
    /// [`TraceView::new`]).
    pub fn from_binary(bytes: &[u8]) -> Result<Self, TraceBinaryError> {
        Ok(TraceView::new(bytes)?.to_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::from_transactions(vec![
            Transaction::write(0, Address::new(1, 2), true),
            Transaction::read(1, Address::new(3, 4)),
            Transaction::write(2, Address::new(0, 0), false),
            Transaction::read(0, Address::new(1, 2)),
        ])
    }

    #[test]
    fn csv_round_trips() {
        let trace = sample_trace();
        let csv = trace.to_csv();
        // Untimed traces keep the original five-column dialect.
        assert!(csv.starts_with("bank,row,col,op,bit\n"));
        assert!(!csv.contains("arrival_ns"));
        assert_eq!(Trace::from_csv(&csv).unwrap(), trace);
    }

    #[test]
    fn timed_csv_round_trips_with_arrival_column() {
        let mut trace = sample_trace();
        for (k, txn) in trace.transactions.iter_mut().enumerate() {
            txn.arrival_ns = 10 * k as u64;
        }
        let csv = trace.to_csv();
        assert!(csv.starts_with("bank,row,col,op,bit,arrival_ns\n"));
        assert_eq!(Trace::from_csv(&csv).unwrap(), trace);
    }

    #[test]
    fn untimed_rows_parse_with_arrival_zero() {
        // A six-column header over five-column records (and vice versa) is
        // tolerated; missing arrivals default to zero.
        let parsed = Trace::from_csv("bank,row,col,op,bit\n0,1,2,W,1,25\n1,3,4,R,\n").unwrap();
        assert_eq!(parsed.transactions()[0].arrival_ns, 25);
        assert_eq!(parsed.transactions()[1].arrival_ns, 0);
        assert!(parsed.is_timed());
        assert!(!sample_trace().is_timed());
    }

    #[test]
    fn non_numeric_arrival_names_line_and_column() {
        let error = Trace::from_csv("0,1,2,R,,soon\n").unwrap_err();
        assert_eq!(error.line, 1);
        assert_eq!(
            error.kind,
            TraceParseErrorKind::BadNumber {
                column: "arrival_ns",
                value: "soon".to_string(),
            }
        );
        assert_eq!(error.kind.column(), Some("arrival_ns"));
        assert_eq!(error.to_string(), "trace line 1: bad arrival_ns \"soon\"");
    }

    #[test]
    fn poisson_arrivals_are_monotone_and_deterministic() {
        use rand::SeedableRng;
        let stamp = |seed: u64| {
            sample_trace().with_poisson_arrivals(20.0, &mut StdRng::seed_from_u64(seed))
        };
        let trace = stamp(9);
        assert_eq!(trace, stamp(9), "same seed must stamp identical arrivals");
        let arrivals: Vec<u64> = trace.transactions().iter().map(|t| t.arrival_ns).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "{arrivals:?}");
        assert!(trace.is_timed());
    }

    #[test]
    fn csv_header_and_blank_lines_are_tolerated() {
        let parsed = Trace::from_csv("bank,row,col,op,bit\n\n0,1,2,W,1\n\n1,3,4,R,\n").unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.transactions()[0].op, Op::Write(true));
        assert_eq!(parsed.transactions()[1].op, Op::Read);
    }

    #[test]
    fn bad_op_enum_carries_the_offending_pair() {
        let error = Trace::from_csv("0,1,2,X,9\n").unwrap_err();
        assert_eq!(error.line, 1);
        assert_eq!(
            error.kind,
            TraceParseErrorKind::BadOp {
                op: "X".to_string(),
                bit: "9".to_string(),
            }
        );
        assert_eq!(error.kind.column(), Some("op"));
        // A write with a missing bit is an op/bit error too, not a count one.
        let error = Trace::from_csv("0,1,2,W,\n").unwrap_err();
        assert!(matches!(error.kind, TraceParseErrorKind::BadOp { .. }));
    }

    #[test]
    fn truncated_and_overlong_rows_report_their_field_count() {
        let error = Trace::from_csv("bank,row,col,op,bit\n0,1\n").unwrap_err();
        assert_eq!(error.line, 2);
        assert_eq!(error.kind, TraceParseErrorKind::FieldCount { got: 2 });
        assert_eq!(error.kind.column(), None);
        let error = Trace::from_csv("0,1,2,R,,7,extra\n").unwrap_err();
        assert_eq!(error.kind, TraceParseErrorKind::FieldCount { got: 7 });
        assert_eq!(
            error.to_string(),
            "trace line 1: expected 5 or 6 fields, got 7"
        );
    }

    #[test]
    fn non_numeric_address_fields_name_their_column() {
        for (record, column, value) in [
            ("x,1,2,R,\n", "bank", "x"),
            ("0,♞,2,R,\n", "row", "♞"),
            ("0,1,-3,W,1\n", "col", "-3"),
        ] {
            let error = Trace::from_csv(record).unwrap_err();
            assert_eq!(
                error.kind,
                TraceParseErrorKind::BadNumber {
                    column,
                    value: value.to_string(),
                },
                "{record:?}"
            );
            assert_eq!(error.kind.column(), Some(column));
        }
    }

    #[test]
    fn counts() {
        let trace = sample_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.reads(), 2);
        assert!(!trace.is_empty());
        assert!(Trace::new().is_empty());
    }

    #[test]
    fn binary_round_trips_timed_and_untimed() {
        for timed in [false, true] {
            let mut trace = sample_trace();
            if timed {
                for (k, txn) in trace.transactions.iter_mut().enumerate() {
                    txn.arrival_ns = 7 * k as u64;
                }
            }
            let bytes = trace.to_binary();
            assert_eq!(
                bytes.len(),
                TRACE_HEADER_BYTES + TRACE_RECORD_BYTES * trace.len()
            );
            assert_eq!(Trace::from_binary(&bytes).unwrap(), trace);
        }
        let empty = Trace::new().to_binary();
        assert_eq!(empty.len(), TRACE_HEADER_BYTES);
        assert!(Trace::from_binary(&empty).unwrap().is_empty());
    }

    #[test]
    fn view_decodes_without_copying() {
        let trace = sample_trace();
        let bytes = trace.to_binary();
        let view = TraceView::new(&bytes).unwrap();
        assert_eq!(view.len(), trace.len());
        assert!(!view.is_empty());
        for (i, txn) in view.iter().enumerate() {
            assert_eq!(txn, trace.get(i));
        }
        assert_eq!(view.to_trace(), trace);
    }

    #[test]
    fn binary_errors_are_typed() {
        let good = sample_trace().to_binary();

        assert_eq!(
            TraceView::new(&good[..10]).unwrap_err(),
            TraceBinaryError::Truncated { got: 10 }
        );

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            TraceView::new(&bad_magic).unwrap_err(),
            TraceBinaryError::BadMagic { got: *b"XTTR" }
        );

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert_eq!(
            TraceView::new(&bad_version).unwrap_err(),
            TraceBinaryError::BadVersion { got: 9 }
        );

        // Chop one byte off the last record: body no longer a whole stride.
        let misaligned = &good[..good.len() - 1];
        assert_eq!(
            TraceView::new(misaligned).unwrap_err(),
            TraceBinaryError::Misaligned {
                body_bytes: misaligned.len() - TRACE_HEADER_BYTES
            }
        );

        // Chop a whole record: aligned, but the header count disagrees.
        let short = &good[..good.len() - TRACE_RECORD_BYTES];
        assert_eq!(
            TraceView::new(short).unwrap_err(),
            TraceBinaryError::CountMismatch { header: 4, body: 3 }
        );

        let mut bad_op = good.clone();
        bad_op[TRACE_HEADER_BYTES + 2 * TRACE_RECORD_BYTES + 12] = 7;
        assert_eq!(
            TraceView::new(&bad_op).unwrap_err(),
            TraceBinaryError::BadOp { record: 2, code: 7 }
        );
        // Errors render a human-readable description.
        assert!(TraceView::new(&bad_op)
            .unwrap_err()
            .to_string()
            .contains("record 2"));
    }

    #[test]
    fn csv_and_binary_agree() {
        use rand::SeedableRng;
        let trace = sample_trace().with_poisson_arrivals(12.0, &mut StdRng::seed_from_u64(2010));
        let via_csv = Trace::from_csv(&trace.to_csv()).unwrap();
        let via_bin = Trace::from_binary(&trace.to_binary()).unwrap();
        assert_eq!(via_csv, via_bin);
        assert_eq!(via_bin, trace);
    }
}
