//! External trace ingestion: formats, detection, and the file-backed
//! workload description.
//!
//! This is the front door for pointing the simulator at a trace you did
//! not synthesise: name a file and a [`TraceFormat`] (or let
//! [`TraceFormat::detect`] sniff it), get back a looping
//! [`ReplaySource`] ready to drive a core. The
//! plain-data [`ExternalSpec`] form of the same information rides inside
//! [`BenchmarkSpec`](crate::BenchmarkSpec) so file-backed workloads flow
//! through the `Experiment` grid machinery exactly like synthetic ones.
//!
//! ```no_run
//! use bosim_trace::{ExternalSpec, TraceSource};
//!
//! let spec = ExternalSpec::detect("traces/mcf.champsim").expect("known format");
//! let mut src = spec.load().expect("decodes");
//! let uop = src.next_uop();
//! ```
//!
//! See `docs/TRACES.md` for the on-disk format specifications.

use crate::artifact::ArtifactStore;
use crate::source::ReplaySource;
use crate::{addr, champsim, file};
use std::fmt;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The on-disk trace formats the simulator ingests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The native `bosim` µop format (`trace::file`): 16-byte header
    /// with magic + record count, 30-byte records. Extension `.btrace`.
    Native,
    /// ChampSim-compatible 64-byte instruction records
    /// ([`champsim`]). Extensions `.champsim`, `.champsimtrace`.
    ChampSim,
    /// Text address trace, `R/W <hex-addr>` per line ([`addr`]).
    /// Extensions `.addr`, `.atrace`, `.txt`.
    AddrText,
    /// Binary address trace, little-endian u64 words with bit 63 as the
    /// store flag ([`addr`]). Extensions `.addrbin`, `.abin`.
    AddrBin,
}

impl TraceFormat {
    /// All formats, in detection-priority order.
    pub const ALL: [TraceFormat; 4] = [
        TraceFormat::Native,
        TraceFormat::ChampSim,
        TraceFormat::AddrText,
        TraceFormat::AddrBin,
    ];

    /// The canonical CLI name (`"native"`, `"champsim"`, `"addr-text"`,
    /// `"addr-bin"`).
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Native => "native",
            TraceFormat::ChampSim => "champsim",
            TraceFormat::AddrText => "addr-text",
            TraceFormat::AddrBin => "addr-bin",
        }
    }

    /// Parses a CLI format name (the inverse of [`name`](Self::name)).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownFormat`] listing the valid names.
    pub fn from_name(name: &str) -> Result<Self, TraceError> {
        match name.trim().to_ascii_lowercase().as_str() {
            "native" | "btrace" => Ok(TraceFormat::Native),
            "champsim" => Ok(TraceFormat::ChampSim),
            "addr-text" | "addr_text" | "addrtext" => Ok(TraceFormat::AddrText),
            "addr-bin" | "addr_bin" | "addrbin" => Ok(TraceFormat::AddrBin),
            _ => Err(TraceError::UnknownFormat {
                what: format!(
                    "unknown trace format {name:?} (expected one of: native, champsim, \
                     addr-text, addr-bin)"
                ),
            }),
        }
    }

    /// Detects the format of `path` from its first bytes and extension:
    /// the native magic wins outright; otherwise the extension decides
    /// (see the variant docs for the recognised ones).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownFormat`] when neither magic nor
    /// extension identify the file, and I/O errors from the probe read.
    pub fn detect(path: &Path) -> Result<Self, TraceError> {
        let mut head = [0u8; 4];
        let mut f = std::fs::File::open(path).map_err(|e| TraceError::Io {
            path: path.to_path_buf(),
            error: e,
        })?;
        let n = f.read(&mut head).map_err(|e| TraceError::Io {
            path: path.to_path_buf(),
            error: e,
        })?;
        if n == 4 && u32::from_le_bytes(head) == file::MAGIC {
            return Ok(TraceFormat::Native);
        }
        let ext = path
            .extension()
            .and_then(|e| e.to_str())
            .unwrap_or_default()
            .to_ascii_lowercase();
        match ext.as_str() {
            "btrace" => Ok(TraceFormat::Native),
            "champsim" | "champsimtrace" => Ok(TraceFormat::ChampSim),
            "addr" | "atrace" | "txt" => Ok(TraceFormat::AddrText),
            "addrbin" | "abin" => Ok(TraceFormat::AddrBin),
            _ => Err(TraceError::UnknownFormat {
                what: format!(
                    "cannot detect the trace format of {}: no native magic and \
                     unrecognised extension {ext:?} — pass the format explicitly",
                    path.display()
                ),
            }),
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Umbrella error for external-trace ingestion: wraps the per-format
/// decode errors plus path-carrying I/O and detection failures.
#[derive(Debug)]
pub enum TraceError {
    /// I/O failure on `path`.
    Io {
        /// The file being read.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// Native-format decode failure ([`file::TraceFileError`]).
    Native(file::TraceFileError),
    /// ChampSim decode failure ([`champsim::ChampSimError`]).
    ChampSim(champsim::ChampSimError),
    /// Address-trace decode failure ([`addr::AddrTraceError`]).
    Addr(addr::AddrTraceError),
    /// The format name or file could not be identified.
    UnknownFormat {
        /// Human-readable diagnosis.
        what: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, error } => {
                write!(f, "cannot read trace {}: {error}", path.display())
            }
            TraceError::Native(e) => write!(f, "{e}"),
            TraceError::ChampSim(e) => write!(f, "{e}"),
            TraceError::Addr(e) => write!(f, "{e}"),
            TraceError::UnknownFormat { what } => f.write_str(what),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io { error, .. } => Some(error),
            TraceError::Native(e) => Some(e),
            TraceError::ChampSim(e) => Some(e),
            TraceError::Addr(e) => Some(e),
            TraceError::UnknownFormat { .. } => None,
        }
    }
}

impl From<file::TraceFileError> for TraceError {
    fn from(e: file::TraceFileError) -> Self {
        TraceError::Native(e)
    }
}

impl From<champsim::ChampSimError> for TraceError {
    fn from(e: champsim::ChampSimError) -> Self {
        TraceError::ChampSim(e)
    }
}

impl From<addr::AddrTraceError> for TraceError {
    fn from(e: addr::AddrTraceError) -> Self {
        TraceError::Addr(e)
    }
}

/// A file-backed workload: path + format + display name. Plain data
/// (`Clone`, `PartialEq`), so it embeds in
/// [`BenchmarkSpec`](crate::BenchmarkSpec) and survives the experiment
/// grid's cloning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalSpec {
    /// The trace file.
    pub path: PathBuf,
    /// Its on-disk format.
    pub format: TraceFormat,
    /// Benchmark name used in reports (defaults to the file stem).
    pub name: String,
}

impl ExternalSpec {
    /// Describes `path` as a `format` trace, named after its file stem.
    pub fn new(path: impl Into<PathBuf>, format: TraceFormat) -> Self {
        let path = path.into();
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("external-trace")
            .to_string();
        ExternalSpec { path, format, name }
    }

    /// Like [`new`](Self::new), sniffing the format with
    /// [`TraceFormat::detect`].
    ///
    /// # Errors
    ///
    /// Returns detection and probe-I/O errors.
    pub fn detect(path: impl Into<PathBuf>) -> Result<Self, TraceError> {
        let path = path.into();
        let format = TraceFormat::detect(&path)?;
        Ok(ExternalSpec::new(path, format))
    }

    /// Overrides the report name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Loads the trace into a looping [`ReplaySource`].
    ///
    /// Decoded traces go through the process-global
    /// [`ArtifactStore`], keyed by (path, format,
    /// file length, mtime): an experiment grid — or many `bosim serve`
    /// worker threads — replaying the same file in many cells decodes it
    /// once and shares one allocation. Rewriting the file on disk
    /// invalidates the entry, and entries evicted by the store's size
    /// bound spill to a cache directory instead of re-decoding. See the
    /// [`artifact`](crate::artifact) module docs.
    ///
    /// # Errors
    ///
    /// Returns the wrapped per-format decode error; empty traces are
    /// rejected by every decoder.
    pub fn load(&self) -> Result<ReplaySource, TraceError> {
        Ok(ReplaySource::from_shared(&self.name, self.load_shared()?))
    }

    /// The cached-decode backend of [`load`](Self::load): the
    /// process-global [`ArtifactStore`].
    fn load_shared(&self) -> Result<Arc<Vec<crate::MicroOp>>, TraceError> {
        ArtifactStore::global().load(self)
    }
}

/// One uncached source-format decode of `path` — the expensive path the
/// [`ArtifactStore`] bounds to once per file
/// generation per process.
///
/// # Errors
///
/// Returns the wrapped per-format decode error; empty traces are
/// rejected by every decoder.
pub(crate) fn decode_file(
    path: &Path,
    format: TraceFormat,
) -> Result<Vec<crate::MicroOp>, TraceError> {
    let open = || {
        std::fs::File::open(path).map_err(|e| TraceError::Io {
            path: path.to_path_buf(),
            error: e,
        })
    };
    Ok(match format {
        TraceFormat::Native => {
            let mut buf = Vec::new();
            std::io::Read::read_to_end(&mut open()?, &mut buf).map_err(|e| TraceError::Io {
                path: path.to_path_buf(),
                error: e,
            })?;
            let uops = file::decode(&buf)?;
            if uops.is_empty() {
                return Err(file::TraceFileError::Corrupt {
                    what: "empty trace",
                    record: 0,
                    offset: file::HEADER_BYTES,
                }
                .into());
            }
            uops
        }
        TraceFormat::ChampSim => champsim::decode(std::io::BufReader::new(open()?))?,
        TraceFormat::AddrText => addr::lower(&addr::parse_text(open()?)?),
        TraceFormat::AddrBin => addr::lower(&addr::parse_binary(std::io::BufReader::new(open()?))?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{capture, TraceSource};
    use crate::suite;

    #[test]
    fn format_names_round_trip() {
        for f in TraceFormat::ALL {
            assert_eq!(TraceFormat::from_name(f.name()).unwrap(), f);
        }
        assert!(matches!(
            TraceFormat::from_name("xml"),
            Err(TraceError::UnknownFormat { .. })
        ));
    }

    #[test]
    fn detection_prefers_native_magic_over_extension() {
        let dir = std::env::temp_dir();
        // A native-format file with a champsim extension: magic wins.
        let path = dir.join(format!(
            "bosim_ingest_magic_{}.champsim",
            std::process::id()
        ));
        let uops = capture(&mut suite::benchmark("462").unwrap().build(), 10);
        std::fs::write(&path, file::encode(&uops)).unwrap();
        assert_eq!(TraceFormat::detect(&path).unwrap(), TraceFormat::Native);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn detection_falls_back_to_extension() {
        let dir = std::env::temp_dir();
        for (ext, want) in [
            ("champsim", TraceFormat::ChampSim),
            ("addr", TraceFormat::AddrText),
            ("addrbin", TraceFormat::AddrBin),
        ] {
            let path = dir.join(format!("bosim_ingest_ext_{}.{ext}", std::process::id()));
            std::fs::write(&path, b"R 0x1000\n").unwrap();
            assert_eq!(TraceFormat::detect(&path).unwrap(), want, "{ext}");
            let _ = std::fs::remove_file(&path);
        }
        let path = dir.join(format!(
            "bosim_ingest_ext_{}.unknowable",
            std::process::id()
        ));
        std::fs::write(&path, b"????").unwrap();
        let err = TraceFormat::detect(&path).unwrap_err();
        assert!(err.to_string().contains("cannot detect"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn external_spec_loads_every_format() {
        let dir = std::env::temp_dir();
        let uops = capture(&mut suite::benchmark("470").unwrap().build(), 500);

        let pid = std::process::id();
        let native = dir.join(format!("bosim_ingest_all_{pid}.btrace"));
        std::fs::write(&native, file::encode(&uops)).unwrap();
        let cs = dir.join(format!("bosim_ingest_all_{pid}.champsim"));
        std::fs::write(&cs, champsim::encode(&uops)).unwrap();
        let at = dir.join(format!("bosim_ingest_all_{pid}.addr"));
        let accesses = addr::accesses_of(&uops);
        std::fs::write(&at, addr::encode_text(&accesses)).unwrap();
        let ab = dir.join(format!("bosim_ingest_all_{pid}.addrbin"));
        std::fs::write(&ab, addr::encode_binary(&accesses)).unwrap();

        for path in [&native, &cs, &at, &ab] {
            let spec = ExternalSpec::detect(path).expect("detectable");
            let mut src = spec.load().expect("loads");
            assert!(src.next_uop().pc > 0, "{}", spec.format);
            assert_eq!(src.name(), format!("bosim_ingest_all_{pid}"));
        }
        // Name override sticks.
        let spec = ExternalSpec::new(&cs, TraceFormat::ChampSim).named("mcf-server");
        assert_eq!(spec.load().unwrap().name(), "mcf-server");
        for p in [native, cs, at, ab] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn decode_cache_shares_and_invalidates() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("bosim_ingest_cache_{}.addr", std::process::id()));
        std::fs::write(&path, "R 0x1000\n").unwrap();
        let spec = ExternalSpec::new(&path, TraceFormat::AddrText);
        let a = spec.load_shared().unwrap();
        let b = spec.load_shared().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same file must decode once");
        // Rewriting the file (different length → different key) must
        // invalidate the entry.
        std::fs::write(&path, "R 0x1000\nW 0x2000\n").unwrap();
        let c = spec.load_shared().unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "rewritten file must re-decode");
        assert_eq!(c.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn io_errors_carry_the_path() {
        let err = ExternalSpec::new("/nonexistent/missing.champsim", TraceFormat::ChampSim)
            .load()
            .unwrap_err();
        // The per-format loader reports the raw io error; detection
        // reports the path. Both display sanely.
        assert!(!err.to_string().is_empty());
        let err = ExternalSpec::detect("/nonexistent/missing.champsim").unwrap_err();
        assert!(err.to_string().contains("missing.champsim"), "{err}");
    }
}
