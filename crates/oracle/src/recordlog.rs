//! Shared checksummed line-record codec for append-only logs.
//!
//! The on-disk discipline of [`crate::store::ResponseStore`] — which is both
//! the persistent response store and, in the client's replay slot, the run
//! journal. A log is a text file of single-line, tab-separated records where
//! every line carries its own FNV-1a checksum, floats are stored as exact
//! bit patterns, appends are single flushed `write_all` calls, and opening
//! verifies the checksummed prefix and truncates a torn tail:
//!
//! * [`escape`] / [`unescape`] — single-line framing of arbitrary text,
//! * [`seal_line`] / [`open_line`] — per-line FNV-1a checksum framing,
//! * [`encode_f64_bits`] / [`decode_f64_bits`] — exact float round-trips,
//! * [`encode_response_fields`] / [`decode_response_fields`] — the
//!   fingerprint-keyed [`CompletionResponse`] field codec,
//! * [`LogFile`] — open-with-recovery, replay, and flushed append.
//!
//! # Crash safety
//!
//! Appends are complete lines flushed per record, so a crash can only lose
//! or tear the *final* line. [`LogFile::open`] walks the file in order,
//! hands each checksum-valid payload to the caller, and truncates at the
//! first torn, corrupt, or structurally rejected line — a damaged tail never
//! poisons a reopen, it merely costs re-deriving the lost records.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::hash::{fnv1a_str, hex64, parse_hex64};
use crate::pricing::Pricing;
use crate::types::{CompletionResponse, FinishReason, Usage};

/// Escape a string for single-line storage (`\` `\t` `\n` `\r`). Text
/// between special bytes is copied as one run, not char by char.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    // All four specials are ASCII, so a byte offset is a char boundary.
    while let Some(at) = rest
        .bytes()
        .position(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
    {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out
}

/// Invert [`escape`]; `None` on a malformed escape sequence.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        out.push(match rest.as_bytes().get(at + 1)? {
            b'\\' => '\\',
            b't' => '\t',
            b'n' => '\n',
            b'r' => '\r',
            _ => return None,
        });
        // Both bytes of a well-formed escape are ASCII.
        rest = &rest[at + 2..];
    }
    out.push_str(rest);
    Some(out)
}

/// Frame a payload as one checksummed record line (trailing newline
/// included): `payload \t fnv1a(payload) \n`.
pub fn seal_line(payload: &str) -> String {
    format!("{payload}\t{}\n", hex64(fnv1a_str(payload)))
}

/// Verify and strip a record line's checksum (the line must not include its
/// newline); returns the payload, or `None` on any corruption.
pub fn open_line(line: &str) -> Option<&str> {
    let (payload, checksum) = line.rsplit_once('\t')?;
    if parse_hex64(checksum)? != fnv1a_str(payload) {
        return None;
    }
    Some(payload)
}

/// Render an `f64` as its exact bit pattern in hex — decodes bit-identically,
/// so replayed pricing math reproduces the original run's.
pub fn encode_f64_bits(v: f64) -> String {
    hex64(v.to_bits())
}

/// Invert [`encode_f64_bits`].
pub fn decode_f64_bits(s: &str) -> Option<f64> {
    Some(f64::from_bits(parse_hex64(s)?))
}

/// Number of fields produced by [`encode_response_fields`].
pub const RESPONSE_FIELDS: usize = 9;

/// Encode a fingerprint-keyed [`CompletionResponse`] as the shared
/// tab-separated field sequence (no checksum, no newline):
///
/// ```text
/// fingerprint  text  prompt_tok  completion_tok  finish  model  in_rate  out_rate  confidence
/// ```
///
/// `finish` is `S`top or `L`ength; rates and confidence are f64 bit patterns
/// (`-` for an absent confidence). The `cached` flag is deliberately not
/// stored: a decoded record always starts `cached: false` and the consumer
/// decides how to charge it.
pub fn encode_response_fields(fingerprint: u64, response: &CompletionResponse) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        hex64(fingerprint),
        escape(&response.text),
        response.usage.prompt_tokens,
        response.usage.completion_tokens,
        match response.finish_reason {
            FinishReason::Stop => 'S',
            FinishReason::Length => 'L',
        },
        escape(&response.model),
        encode_f64_bits(response.pricing.usd_per_1k_input),
        encode_f64_bits(response.pricing.usd_per_1k_output),
        match response.confidence {
            Some(c) => encode_f64_bits(c),
            None => "-".to_string(),
        },
    )
}

/// Decode the field sequence produced by [`encode_response_fields`]. Expects
/// exactly [`RESPONSE_FIELDS`] fields; `None` on any structural corruption.
pub fn decode_response_fields(fields: &[&str]) -> Option<(u64, CompletionResponse)> {
    if fields.len() != RESPONSE_FIELDS {
        return None;
    }
    let fingerprint = parse_hex64(fields[0])?;
    let text = unescape(fields[1])?;
    let usage = Usage {
        prompt_tokens: fields[2].parse().ok()?,
        completion_tokens: fields[3].parse().ok()?,
    };
    let finish_reason = match fields[4] {
        "S" => FinishReason::Stop,
        "L" => FinishReason::Length,
        _ => return None,
    };
    let model = unescape(fields[5])?;
    let pricing = Pricing::new(decode_f64_bits(fields[6])?, decode_f64_bits(fields[7])?);
    let confidence = match fields[8] {
        "-" => None,
        bits => Some(decode_f64_bits(bits)?),
    };
    Some((
        fingerprint,
        CompletionResponse {
            text,
            usage,
            finish_reason,
            model,
            cached: false,
            pricing,
            confidence,
        },
    ))
}

/// An append-only checksummed record log: one header line, then one sealed
/// record per line. Owns the append handle; consumers replay records through
/// the `open` callback and append payloads (sealing is handled here).
pub struct LogFile {
    file: File,
}

/// Read a file's contents as the longest valid UTF-8 prefix. A torn write
/// can cut a multi-byte character in half; the cut falls inside the torn
/// tail that prefix recovery drops anyway.
fn read_valid_utf8_prefix(file: &mut File) -> std::io::Result<String> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(match String::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => {
            let valid = e.utf8_error().valid_up_to();
            let mut bytes = e.into_bytes();
            bytes.truncate(valid);
            // lint: allow(no-unwrap) — invariant: valid_up_to-checked prefix
            String::from_utf8(bytes).expect("checked prefix")
        }
    })
}

impl LogFile {
    /// Open (creating if absent) the log at `path` for appending.
    ///
    /// Each existing line is checksum-verified in order and its payload
    /// handed to `on_record`; the walk stops — and the file is truncated —
    /// at the first torn or corrupt line, or when `on_record` returns
    /// `false` (structural rejection by the consumer's own field codec).
    /// A file whose header is present but wrong (another format or version)
    /// is an error rather than silently clobbered.
    pub fn open(
        path: impl AsRef<Path>,
        header: &str,
        mut on_record: impl FnMut(&str) -> bool,
    ) -> std::io::Result<LogFile> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let contents = read_valid_utf8_prefix(&mut file)?;

        let valid_end = if contents.is_empty() {
            let line = format!("{header}\n");
            file.write_all(line.as_bytes())?;
            file.flush()?;
            line.len() as u64
        } else {
            let end = Self::replay(path, &contents, header, &mut on_record)?;
            // Drop everything after the last valid record and position the
            // append cursor there.
            file.set_len(end)?;
            end
        };
        file.seek(SeekFrom::Start(valid_end))?;
        Ok(LogFile { file })
    }

    /// Replay the records of the log at `path` without taking the append
    /// handle and without truncating: the read-only counterpart of
    /// [`LogFile::open`]. Torn or corrupt tails are simply ignored. Errors
    /// if the file does not exist or carries a foreign header.
    pub fn open_read_only(
        path: impl AsRef<Path>,
        header: &str,
        mut on_record: impl FnMut(&str) -> bool,
    ) -> std::io::Result<()> {
        let path = path.as_ref();
        let mut file = OpenOptions::new().read(true).open(path)?;
        let contents = read_valid_utf8_prefix(&mut file)?;
        if contents.is_empty() {
            return Ok(());
        }
        Self::replay(path, &contents, header, &mut on_record)?;
        Ok(())
    }

    /// Walk `contents` record by record, returning the byte offset of the
    /// end of the valid prefix. Errors on a foreign header.
    fn replay(
        path: &Path,
        contents: &str,
        header: &str,
        on_record: &mut impl FnMut(&str) -> bool,
    ) -> std::io::Result<u64> {
        let Some(rest) = contents
            .strip_prefix(header)
            .and_then(|r| r.strip_prefix('\n'))
        else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("'{}' is not a {header} file", path.display()),
            ));
        };
        let mut valid_end = (header.len() + 1) as u64;
        for line in rest.split_inclusive('\n') {
            let Some(body) = line.strip_suffix('\n') else {
                break; // partial (torn) final line
            };
            let Some(payload) = open_line(body) else {
                break; // checksum corruption
            };
            if !on_record(payload) {
                break; // field-level corruption
            }
            valid_end += line.len() as u64;
        }
        Ok(valid_end)
    }

    /// Append one record payload as a single sealed, flushed line. A crash
    /// can tear at most this final record.
    pub fn append(&mut self, payload: &str) -> std::io::Result<()> {
        self.file.write_all(seal_line(payload).as_bytes())?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "crowdprompt-recordlog-test-{}-{tag}-{n}.log",
            std::process::id()
        ))
    }

    fn sample_response(text: &str, conf: Option<f64>) -> CompletionResponse {
        CompletionResponse {
            text: text.to_string(),
            usage: Usage {
                prompt_tokens: 12,
                completion_tokens: 3,
            },
            finish_reason: FinishReason::Stop,
            model: "sim-gpt-3.5-turbo".into(),
            cached: false,
            pricing: Pricing::new(0.0005, 0.0015),
            confidence: conf,
        }
    }

    #[test]
    fn escape_unescape_inverse() {
        for s in ["", "plain", "a\tb\nc\rd\\e", "\\t literal", "\\"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert!(unescape("bad \\x escape").is_none());
        assert!(unescape("trailing \\").is_none());
    }

    /// The char-by-char codec the run-copying one replaced, kept as the
    /// reference it must agree with byte for byte.
    fn escape_by_chars(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out
    }

    fn unescape_by_chars(s: &str) -> Option<String> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next()? {
                '\\' => out.push('\\'),
                't' => out.push('\t'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                _ => return None,
            }
        }
        Some(out)
    }

    /// Pieces that make ASCII, multi-byte and escape-heavy strings, and —
    /// read as stored text — well-formed and malformed escapes alike.
    const PIECES: [&str; 16] = [
        "a",
        "plain run ",
        "é",
        "日本",
        "🦀",
        "\\",
        "\\\\",
        "\t",
        "\n",
        "\r",
        "t",
        "n",
        "r",
        "x",
        "\\x",
        "\\é",
    ];

    proptest! {
        #[test]
        fn run_copying_codec_matches_the_char_loop(
            picks in prop::collection::vec(0usize..PIECES.len(), 0..48),
        ) {
            let s: String = picks.iter().map(|&p| PIECES[p]).collect();
            let escaped = escape(&s);
            prop_assert_eq!(&escaped, &escape_by_chars(&s));
            prop_assert_eq!(unescape(&escaped), Some(s.clone()));
            // As stored text `s` may hold `\x`, `\é` or a trailing backslash.
            prop_assert_eq!(unescape(&s), unescape_by_chars(&s));
        }
    }

    #[test]
    fn seal_open_roundtrip_and_rejection() {
        let sealed = seal_line("alpha\tbeta");
        let body = sealed.strip_suffix('\n').unwrap();
        assert_eq!(open_line(body), Some("alpha\tbeta"));
        // Any byte flip invalidates the line.
        let corrupt = body.replace("alpha", "alphX");
        assert!(open_line(&corrupt).is_none());
        assert!(open_line("no checksum here").is_none());
    }

    #[test]
    fn f64_bits_roundtrip_exact() {
        for v in [0.0, -0.0, 0.1, f64::MIN_POSITIVE, f64::INFINITY] {
            let enc = encode_f64_bits(v);
            assert_eq!(decode_f64_bits(&enc).map(f64::to_bits), Some(v.to_bits()));
        }
        assert!(decode_f64_bits("not hex").is_none());
    }

    #[test]
    fn response_fields_roundtrip() {
        let weird = "line one\nline\ttwo \\ backslash\rcarriage";
        let response = sample_response(weird, Some(0.875));
        let payload = encode_response_fields(0xdead_beef, &response);
        let fields: Vec<&str> = payload.split('\t').collect();
        let (fp, decoded) = decode_response_fields(&fields).unwrap();
        assert_eq!(fp, 0xdead_beef);
        assert_eq!(decoded.text, weird);
        assert_eq!(decoded.usage.total(), 15);
        assert_eq!(decoded.confidence, Some(0.875));
        assert!(!decoded.cached);
        assert_eq!(
            decoded.pricing.usd_per_1k_input.to_bits(),
            0.0005f64.to_bits()
        );
    }

    #[test]
    fn logfile_recovers_prefix_and_appends() {
        let path = temp_path("prefix");
        {
            let mut log = LogFile::open(&path, "test-log v1", |_| true).unwrap();
            log.append("one").unwrap();
            log.append("two").unwrap();
        }
        // Tear the final record mid-line.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let mut seen = Vec::new();
        let mut log = LogFile::open(&path, "test-log v1", |p| {
            seen.push(p.to_string());
            true
        })
        .unwrap();
        assert_eq!(seen, vec!["one".to_string()]);
        log.append("three").unwrap();
        drop(log);

        let mut seen = Vec::new();
        LogFile::open_read_only(&path, "test-log v1", |p| {
            seen.push(p.to_string());
            true
        })
        .unwrap();
        assert_eq!(seen, vec!["one".to_string(), "three".to_string()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn logfile_consumer_rejection_truncates() {
        let path = temp_path("reject");
        {
            let mut log = LogFile::open(&path, "test-log v1", |_| true).unwrap();
            log.append("good").unwrap();
            log.append("BAD").unwrap();
            log.append("after").unwrap();
        }
        // The consumer's field codec refuses "BAD": the suffix is dropped.
        let mut seen = Vec::new();
        drop(
            LogFile::open(&path, "test-log v1", |p| {
                if p == "BAD" {
                    return false;
                }
                seen.push(p.to_string());
                true
            })
            .unwrap(),
        );
        assert_eq!(seen, vec!["good".to_string()]);
        let mut all = Vec::new();
        LogFile::open_read_only(&path, "test-log v1", |p| {
            all.push(p.to_string());
            true
        })
        .unwrap();
        assert_eq!(all, vec!["good".to_string()], "rejected suffix truncated");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_drops_the_suffix() {
        let path = temp_path("corrupt");
        {
            let mut log = LogFile::open(&path, "test-log v1", |_| true).unwrap();
            for payload in ["ok", "will corrupt", "after corruption"] {
                log.append(payload).unwrap();
            }
        }
        // Flip a byte inside the second record. Recovery is prefix-based:
        // everything from the first bad line on is dropped, even the later
        // well-formed record.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("will corrupt", "Xill corrupt")).unwrap();
        let mut seen = Vec::new();
        let on_record = |p: &str| {
            seen.push(p.to_string());
            true
        };
        drop(LogFile::open(&path, "test-log v1", on_record).unwrap());
        assert_eq!(seen, ["ok"]);
        let kept = format!("test-log v1\n{}", seal_line("ok"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), kept);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_header_is_refused() {
        let path = temp_path("foreign");
        std::fs::write(&path, "not a log\n").unwrap();
        assert!(LogFile::open(&path, "test-log v1", |_| true).is_err());
        assert!(LogFile::open_read_only(&path, "test-log v1", |_| true).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_only_missing_file_errors() {
        let path = temp_path("missing");
        assert!(LogFile::open_read_only(&path, "test-log v1", |_| true).is_err());
    }
}
