//! Cluster-layer errors.

use std::fmt;

use pjoin::StateExportError;
use punct_durable::SnapshotError;
use punct_net::NetError;
use punct_types::WireError;

/// Everything that can go wrong running a cluster: transport failures,
/// malformed control frames, and protocol-state violations (a frame the
/// current migration state machine cannot accept).
#[derive(Debug)]
pub enum ClusterError {
    /// An I/O error on a control or data connection.
    Io(std::io::Error),
    /// A data-plane transport error (sender/subscriber).
    Net(NetError),
    /// A control frame failed to decode.
    Wire(WireError),
    /// Join state could not be exported for migration (disk-resident or
    /// purge-buffered state; cluster v1 requires memory-only eager
    /// configurations).
    Export(StateExportError),
    /// A well-formed frame (or element) that violates the protocol state
    /// machine — e.g. a punctuation propagation nobody registered, a
    /// migration frame outside a migration, a stale epoch.
    Protocol(String),
    /// A peer closed its control connection mid-protocol.
    Disconnected(String),
    /// A peer failed to produce an expected frame in time.
    Timeout(String),
    /// A durable checkpoint could not be written or read back (I/O,
    /// corruption, or no complete epoch to recover from).
    Snapshot(SnapshotError),
    /// A transport failure on a worker's link, or a missed heartbeat.
    /// With a respawn hook the coordinator recovers in place; callers see
    /// it without one, or from where no rollback reaches: after `finish`
    /// sent a `Fin`, mid-migration, mid-assembly or mid-recovery.
    WorkerLost {
        /// The lost worker's index.
        worker: usize,
        /// The transport error that revealed the loss.
        cause: Box<ClusterError>,
    },
}

/// Classifies the result of a call on worker `worker`'s link: a transport
/// failure (`Io`, `Net`, `Disconnected`, `Timeout`) means the worker is
/// lost; a bad frame or a protocol violation is a bug, and passes through.
pub(crate) fn on_link<T>(
    worker: usize,
    r: Result<T, impl Into<ClusterError>>,
) -> Result<T, ClusterError> {
    r.map_err(|e| match e.into() {
        e @ (ClusterError::Io(_)
        | ClusterError::Net(_)
        | ClusterError::Disconnected(_)
        | ClusterError::Timeout(_)) => ClusterError::WorkerLost { worker, cause: Box::new(e) },
        other => other,
    })
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "cluster i/o error: {e}"),
            ClusterError::Net(e) => write!(f, "cluster transport error: {e}"),
            ClusterError::Wire(e) => write!(f, "cluster control frame error: {e}"),
            ClusterError::Export(e) => write!(f, "state export failed: {e}"),
            ClusterError::Protocol(what) => write!(f, "cluster protocol violation: {what}"),
            ClusterError::Disconnected(who) => write!(f, "{who} disconnected mid-protocol"),
            ClusterError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            ClusterError::Snapshot(e) => write!(f, "durable checkpoint error: {e}"),
            ClusterError::WorkerLost { worker: w, cause } => write!(f, "worker {w} lost: {cause}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// `?` lifts each underlying error into its variant.
macro_rules! impl_from {
    ($($variant:ident($source:ty)),*) => {$(
        impl From<$source> for ClusterError {
            fn from(e: $source) -> ClusterError {
                ClusterError::$variant(e)
            }
        }
    )*};
}

impl_from!(Io(std::io::Error), Net(NetError), Wire(WireError));
impl_from!(Export(StateExportError), Snapshot(SnapshotError));
