//! Shared checksummed line-record codec for append-only logs.
//!
//! The on-disk discipline of [`crate::store::ResponseStore`] — which is both
//! the persistent response store and, in the client's replay slot, the run
//! journal. A log is a text file of single-line, tab-separated records where
//! every line carries its own FNV-1a checksum, floats are stored as exact
//! bit patterns, appends are single flushed `write_all` calls, and opening
//! verifies the checksummed prefix and truncates a torn tail:
//!
//! * [`escape_into`] / [`unescape`] — single-line framing of arbitrary text,
//! * [`seal_line`] — per-line FNV-1a checksum framing,
//! * [`decode_f64_bits`] — exact float round-trips (floats are written as
//!   their bit patterns in hex),
//! * [`push_response_fields`] / [`decode_response_fields`] — the
//!   fingerprint-keyed [`CompletionResponse`] field codec,
//! * [`LogFile`] — open-with-recovery, replay, and flushed append.
//!
//! A record is built into one `String` — fields appended in place, then
//! sealed in place — so a writer can build it before it takes any lock.
//! Hex fields are written by table, not through `core::fmt`; only the two
//! token counts are formatted.
//!
//! # Crash safety
//!
//! Appends are complete lines flushed per record, so a crash can only lose
//! or tear the *final* line. [`LogFile::open`] verifies and decodes the
//! file's lines in one walk, hands the records to the caller in file order,
//! and truncates at the first torn, corrupt, or structurally rejected line
//! — a damaged tail never poisons a reopen, it merely costs re-deriving the
//! lost records.
//!
//! The walk takes the lines four at a time. One FNV-1a chain waits on its
//! multiply every byte, so the four lines' checksums are computed as four
//! interleaved chains ([`crate::hash::fnv1a_x4`], each lane equal to
//! `fnv1a`). The four lines are then checked and decoded in file order, and
//! the walk stops at the first that is torn, has no checksum field, fails
//! its checksum or does not decode: no record after a bad line is decoded
//! or handed on, so the walk takes the same records, and stops at the same
//! byte, as one that checked a line at a time.

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::hash::{fnv1a_str, fnv1a_x4, parse_hex64, push_hex64, word};
use crate::pricing::Pricing;
use crate::types::{CompletionResponse, FinishReason, ModelName, Usage};

/// Append `s` escaped for single-line storage (`\` `\t` `\n` `\r`). Text
/// between special bytes is copied as one run, not char by char.
pub(crate) fn escape_into(out: &mut String, s: &str) {
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
}

/// Invert [`escape_into`]; `None` on a malformed escape sequence. Text with
/// no escapes comes back borrowed. Other text is copied into a buffer the
/// field's length, eight bytes a step up to each escape: in a packed
/// answer an escape comes every few bytes, so a branch per byte would
/// mispredict at each one.
pub(crate) fn unescape(s: &str) -> Option<Cow<'_, str>> {
    let bytes = s.as_bytes();
    let Some(first) = find_byte(bytes, b'\\') else {
        return Some(Cow::Borrowed(s));
    };
    let mut out = vec![0; bytes.len()];
    out[..first].copy_from_slice(&bytes[..first]);
    // The write cursor trails the read one by a byte per escape decoded.
    let (mut read, mut write) = (first, first);
    while read < bytes.len() {
        if let Some(chunk) = bytes.get(read..read + 8) {
            // Copy eight bytes and keep those before the first backslash.
            out[write..write + 8].copy_from_slice(chunk);
            let run = first_match(word(chunk), b'\\').unwrap_or(8);
            read += run;
            write += run;
            if run == 8 {
                continue;
            }
        } else if bytes[read] != b'\\' {
            out[write] = bytes[read];
            read += 1;
            write += 1;
            continue;
        }
        out[write] = match bytes.get(read + 1)? {
            b'\\' => b'\\',
            b't' => b'\t',
            b'n' => b'\n',
            b'r' => b'\r',
            _ => return None,
        };
        read += 2;
        write += 1;
    }
    out.truncate(write);
    // Each escape is two ASCII bytes turned into one, so the copy is as
    // much UTF-8 as `s` and always converts.
    String::from_utf8(out).ok().map(Cow::Owned)
}

/// The index of the first byte of `word` (little-endian) that is `needle`.
#[inline(always)]
fn first_match(word: u64, needle: u8) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    // Bytes equal to `needle` are zero in `x`; the lowest zero byte is the
    // lowest byte whose high bit survives (a borrow only reaches the bytes
    // above it).
    let x = word ^ (ONES * u64::from(needle));
    let zeros = x.wrapping_sub(ONES) & !x & (ONES << 7);
    (zeros != 0).then(|| zeros.trailing_zeros() as usize / 8)
}

/// Where `needle` first occurs in `haystack`, read eight bytes a step.
pub(crate) fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let mut words = haystack.chunks_exact(8);
    for (step, chunk) in (&mut words).enumerate() {
        if let Some(at) = first_match(word(chunk), needle) {
            return Some(step * 8 + at);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == needle)?;
    Some(haystack.len() - tail.len() + at)
}

/// Frame the payload held in `line` as one checksummed record line, in
/// place (trailing newline included): `payload \t fnv1a(payload) \n`.
pub(crate) fn seal_line(line: &mut String) {
    let checksum = fnv1a_str(line);
    line.push('\t');
    push_hex64(line, checksum);
    line.push('\n');
}

/// Split a record line (without its newline) into its payload and the
/// checksum its last field states, or `None` when that field is not 16 hex
/// digits. The checksum field is the last 17 bytes, tab included: a last
/// field of any other width does not parse.
fn sealed_parts(line: &str) -> Option<(&str, u64)> {
    let tab = line.len().checked_sub(17)?;
    if line.as_bytes()[tab] != b'\t' {
        return None;
    }
    // The byte at `tab` is ASCII, so both slices start on a char boundary.
    Some((&line[..tab], parse_hex64(&line[tab + 1..])?))
}

/// Decode an `f64` written as its exact bit pattern in hex — bit-identical,
/// so replayed pricing math reproduces the original run's.
pub(crate) fn decode_f64_bits(s: &str) -> Option<f64> {
    Some(f64::from_bits(parse_hex64(s)?))
}

/// Number of fields produced by [`push_response_fields`].
pub(crate) const RESPONSE_FIELDS: usize = 9;

/// Append a fingerprint-keyed [`CompletionResponse`] as the shared
/// tab-separated field sequence (no checksum, no newline):
///
/// ```text
/// fingerprint  text  prompt_tok  completion_tok  finish  model  in_rate  out_rate  confidence
/// ```
///
/// `finish` is `S`top or `L`ength; rates and confidence are f64 bit patterns
/// (`-` for an absent confidence); the model is its name, as text. The
/// `cached` flag is deliberately not stored: a decoded record always starts
/// `cached: false` and the consumer decides how to charge it.
pub(crate) fn push_response_fields(
    out: &mut String,
    fingerprint: u64,
    response: &CompletionResponse,
) {
    use std::fmt::Write as _;
    push_hex64(out, fingerprint);
    out.push('\t');
    escape_into(out, &response.text);
    let usage = response.usage;
    let finish = match response.finish_reason {
        FinishReason::Stop => 'S',
        FinishReason::Length => 'L',
    };
    out.push('\t');
    // Writing to a `String` cannot fail.
    let _ = write!(out, "{}\t{}", usage.prompt_tokens, usage.completion_tokens);
    out.push('\t');
    out.push(finish);
    out.push('\t');
    escape_into(out, &response.model);
    for rate in [
        response.pricing.usd_per_1k_input,
        response.pricing.usd_per_1k_output,
    ] {
        out.push('\t');
        push_hex64(out, rate.to_bits());
    }
    out.push('\t');
    match response.confidence {
        Some(c) => push_hex64(out, c.to_bits()),
        None => out.push('-'),
    }
}

/// The model name of the record a replay decoded last. A store's records
/// nearly all name one model, so a record whose model field reads exactly
/// as that name reuses its handle; any other field is unescaped and
/// interned, which takes the name table's lock.
#[derive(Default)]
pub(crate) struct LastModel(Option<(&'static str, ModelName)>);

impl LastModel {
    /// The model a record's model field (escaped, as stored) names.
    fn name(&mut self, field: &str) -> Option<ModelName> {
        if let Some((last, name)) = self.0 {
            if last == field {
                return Some(name);
            }
        }
        let text = unescape(field)?;
        let name = ModelName::from(&*text);
        // A field with an escape in it never reads as its own name, so only
        // a name stored as itself is kept to compare against.
        self.0 = matches!(text, Cow::Borrowed(_)).then(|| (name.as_str(), name));
        Some(name)
    }
}

/// Parse a token count exactly as `str::parse::<u32>` does: ASCII digits
/// after at most one `+`, and no overflow.
fn decode_u32(s: &str) -> Option<u32> {
    let digits = s.strip_prefix('+').unwrap_or(s).as_bytes();
    if digits.is_empty() {
        return None;
    }
    let mut v = 0u32;
    for &d in digits {
        let digit = d.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u32::from(digit))?;
    }
    Some(v)
}

/// Decode the field sequence produced by [`push_response_fields`]. Expects
/// exactly [`RESPONSE_FIELDS`] fields; `None` on any structural corruption.
/// The model's name is interned here, only when it differs from the one
/// `last_model` holds from the record before.
pub(crate) fn decode_response_fields(
    fields: &[&str],
    last_model: &mut LastModel,
) -> Option<(u64, CompletionResponse)> {
    let &[fingerprint, text, prompt_tokens, completion_tokens, finish, model, input, output, confidence] =
        fields
    else {
        return None;
    };
    let fingerprint = parse_hex64(fingerprint)?;
    let text = unescape(text)?.into_owned();
    let usage = Usage {
        prompt_tokens: decode_u32(prompt_tokens)?,
        completion_tokens: decode_u32(completion_tokens)?,
    };
    let finish_reason = match finish {
        "S" => FinishReason::Stop,
        "L" => FinishReason::Length,
        _ => return None,
    };
    let model = last_model.name(model)?;
    let pricing = Pricing::new(decode_f64_bits(input)?, decode_f64_bits(output)?);
    let confidence = match confidence {
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
pub(crate) struct LogFile {
    file: File,
    /// Where the last whole record ends, which a failed append cuts the
    /// file back to; `None` once such a cut failed, after which the log
    /// appends nothing.
    end: Option<u64>,
}

/// Read a log file's contents: `None` when the whole file is a prefix of
/// the `header` line's text (empty, or a crash tore the header's write),
/// otherwise the longest valid UTF-8 prefix. A torn write can cut a
/// multi-byte character in half; the cut falls inside the torn tail that
/// prefix recovery drops anyway.
fn read_contents(file: &mut File, header: &str) -> std::io::Result<Option<String>> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if header.as_bytes().starts_with(&bytes) {
        return Ok(None);
    }
    Ok(Some(match String::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => {
            let valid = e.utf8_error().valid_up_to();
            let mut bytes = e.into_bytes();
            bytes.truncate(valid);
            // lint: allow(no-unwrap) — invariant: valid_up_to-checked prefix
            String::from_utf8(bytes).expect("checked prefix")
        }
    }))
}

/// Walk `records` in groups of up to four whole lines, handing the decoded
/// record of each checksum-valid line to `sink` in file order, until the
/// first torn, corrupt or rejected line. Returns the bytes of the lines
/// taken: `records.len()` when every line was.
///
/// A group's four checksums are computed together ([`fnv1a_x4`]); its
/// lines are then checked and decoded one after another, so `decode` and
/// `sink` never see a line after a bad one.
fn walk<T>(
    records: &str,
    mut decode: impl FnMut(&str) -> Option<T>,
    mut sink: impl FnMut(T),
) -> usize {
    let mut taken = 0;
    loop {
        // Up to four whole lines from `taken` on; a torn final line (no
        // newline) is not one.
        let mut lines = [""; 4];
        let mut whole = 0;
        let mut end = taken;
        for line in &mut lines {
            let Some(len) = records[end..].find('\n') else {
                break;
            };
            *line = &records[end..end + len];
            end += len + 1;
            whole += 1;
        }
        let sealed = lines.map(sealed_parts);
        let sums = fnv1a_x4(sealed.map(|parts| parts.map_or(&[][..], |(p, _)| p.as_bytes())));
        for ((line, parts), sum) in lines.iter().zip(sealed).zip(sums).take(whole) {
            let Some((payload, checksum)) = parts else {
                return taken; // no checksum field
            };
            if checksum != sum {
                return taken; // checksum corruption
            }
            let Some(record) = decode(payload) else {
                return taken; // field-level corruption
            };
            sink(record);
            taken += line.len() + 1;
        }
        if whole < lines.len() {
            return taken; // the end, or a torn final line
        }
    }
}

/// Verify and strip a record line's checksum (the line must not include
/// its newline); returns the payload, or `None` on any corruption. The
/// line-at-a-time check [`walk`] replaced, kept as its reference.
#[cfg(test)]
fn open_line(line: &str) -> Option<&str> {
    let (payload, checksum) = line.rsplit_once('\t')?;
    if crate::hash::parse_hex64_by_radix(checksum)? != fnv1a_str(payload) {
        return None;
    }
    Some(payload)
}

/// The line-at-a-time walk [`walk`] replaced, kept as its reference: one
/// [`open_line`] after another.
#[cfg(test)]
fn walk_by_line<T>(
    records: &str,
    decode: impl Fn(&str) -> Option<T>,
    mut sink: impl FnMut(T),
) -> usize {
    let mut taken = 0;
    for line in records.split_inclusive('\n') {
        let Some(body) = line.strip_suffix('\n') else {
            break; // partial (torn) final line
        };
        let Some(payload) = open_line(body) else {
            break; // checksum corruption
        };
        let Some(record) = decode(payload) else {
            break; // field-level corruption
        };
        sink(record);
        taken += line.len();
    }
    taken
}

impl LogFile {
    /// Open (creating if absent) the log at `path` for appending.
    ///
    /// Each existing line is checksum-verified and its payload handed to
    /// `decode`; the records are handed to `apply` in file order. The walk
    /// stops — and the file is truncated — at the first torn or corrupt
    /// line, or where `decode` returns `None` (structural rejection by the
    /// consumer's own field codec). An empty file, or one holding only part
    /// of the header line (a crash tore the header's write), starts afresh
    /// with a whole header. Any other file whose first line is not the
    /// header (another format or version, or not text at all) is an error
    /// and is left untouched.
    pub(crate) fn open<T>(
        path: impl AsRef<Path>,
        header: &str,
        decode: impl FnMut(&str) -> Option<T>,
        apply: impl FnMut(T),
    ) -> std::io::Result<LogFile> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let valid_end = match read_contents(&mut file, header)? {
            None => {
                let line = format!("{header}\n");
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(line.as_bytes())?;
                file.flush()?;
                line.len() as u64
            }
            Some(contents) => {
                let end = Self::replay(path, &contents, header, decode, apply)?;
                // Drop everything after the last valid record and position
                // the append cursor there.
                file.set_len(end)?;
                end
            }
        };
        file.seek(SeekFrom::Start(valid_end))?;
        Ok(LogFile {
            file,
            end: Some(valid_end),
        })
    }

    /// Replay `contents` record by record, returning the byte offset of the
    /// end of the valid prefix. Errors on a foreign header.
    fn replay<T>(
        path: &Path,
        contents: &str,
        header: &str,
        decode: impl FnMut(&str) -> Option<T>,
        apply: impl FnMut(T),
    ) -> std::io::Result<u64> {
        let Some(records) = contents
            .strip_prefix(header)
            .and_then(|r| r.strip_prefix('\n'))
        else {
            let found: String = contents
                .lines()
                .next()
                .unwrap_or("")
                .chars()
                .take(80)
                .collect();
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "'{}' starts with {found:?}, not {header:?}: it was written in another \
                     format or version, which this build neither reads nor converts; \
                     remove the file to start afresh (the answers it held are paid for once \
                     more)",
                    path.display()
                ),
            ));
        };
        Ok((header.len() + 1 + walk(records, decode, apply)) as u64)
    }

    /// A log appending through `file`, with no header check or replay: how
    /// a test hands a store a handle the disk refuses.
    #[cfg(test)]
    pub(crate) fn over(mut file: File) -> LogFile {
        let end = file.seek(SeekFrom::End(0)).ok();
        LogFile { file, end }
    }

    /// Append one record line, already sealed ([`seal_line`]), as a single
    /// flushed write. A crash can tear at most this final record.
    ///
    /// A write that fails part-way (a full disk, say) is cut back off the
    /// file, so the next append follows the last whole record rather than
    /// torn bytes a reopen would stop at. If the cut fails too, every later
    /// append is refused.
    pub(crate) fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.append_with(line, |file, bytes| {
            file.write_all(bytes)?;
            file.flush()
        })
    }

    /// [`LogFile::append`] through `write`, which a test swaps for one that
    /// fails part-way.
    fn append_with(
        &mut self,
        line: &str,
        write: impl FnOnce(&mut File, &[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let Some(end) = self.end else {
            return Err(std::io::Error::other(
                "the log ends in a torn record it could not cut",
            ));
        };
        if let Err(e) = write(&mut self.file, line.as_bytes()) {
            if self.cut_to(end).is_err() {
                self.end = None;
            }
            return Err(e);
        }
        self.end = Some(end + line.len() as u64);
        Ok(())
    }

    /// Drop whatever a failed write left after `end`, and append there.
    fn cut_to(&mut self, end: u64) -> std::io::Result<()> {
        if self.file.stream_position()? != end {
            self.file.set_len(end)?;
            self.file.seek(SeekFrom::Start(end))?;
        }
        Ok(())
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

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    fn sealed(payload: &str) -> String {
        let mut line = payload.to_string();
        seal_line(&mut line);
        line
    }

    fn encode_response_fields(fingerprint: u64, response: &CompletionResponse) -> String {
        let mut out = String::new();
        push_response_fields(&mut out, fingerprint, response);
        out
    }

    /// The `format!` encoder the in-place one replaced, kept as the
    /// reference it must agree with byte for byte.
    fn encode_by_format(fingerprint: u64, response: &CompletionResponse) -> String {
        format!(
            "{:016x}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{:016x}\t{}",
            fingerprint,
            escape_by_chars(&response.text),
            response.usage.prompt_tokens,
            response.usage.completion_tokens,
            match response.finish_reason {
                FinishReason::Stop => 'S',
                FinishReason::Length => 'L',
            },
            escape_by_chars(&response.model),
            response.pricing.usd_per_1k_input.to_bits(),
            response.pricing.usd_per_1k_output.to_bits(),
            match response.confidence {
                Some(c) => format!("{:016x}", c.to_bits()),
                None => "-".to_string(),
            },
        )
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
            prop_assert_eq!(unescape(&escaped).as_deref(), Some(s.as_str()));
            // As stored text `s` may hold `\x`, `\é` or a trailing backslash.
            prop_assert_eq!(unescape(&s).map(Cow::into_owned), unescape_by_chars(&s));
        }

        #[test]
        fn in_place_fields_match_the_format_encoder(
            text in prop::collection::vec(0usize..PIECES.len(), 0..12),
            model in prop::collection::vec(0usize..PIECES.len(), 0..4),
            tokens in (0u32..5_000, 0u32..5_000),
            fingerprint in 0u64..u64::MAX,
            confidence in 0u32..3,
        ) {
            let mut response = sample_response(
                &text.iter().map(|&p| PIECES[p]).collect::<String>(),
                [None, Some(0.875), Some(f64::MIN_POSITIVE)][confidence as usize],
            );
            response.model = model.iter().map(|&p| PIECES[p]).collect::<String>().into();
            response.usage.prompt_tokens = tokens.0;
            response.usage.completion_tokens = u32::MAX - tokens.1;
            response.finish_reason = if tokens.0 % 2 == 0 {
                FinishReason::Stop
            } else {
                FinishReason::Length
            };
            prop_assert_eq!(
                encode_response_fields(fingerprint, &response),
                encode_by_format(fingerprint, &response)
            );
        }

        #[test]
        fn decoding_arbitrary_fields_never_panics(
            len in 0usize..12,
            picks in prop::collection::vec(0usize..2 * FIELD_PIECES.len(), 12),
        ) {
            // Each field is either the well-formed one for its position or
            // a piece, so decoding gets past the early fields as often as not.
            let valid = encode_response_fields(0xfeed, &sample_response("Yes.\tno", Some(0.5)));
            let valid: Vec<&str> = valid.split('\t').collect();
            let fields: Vec<&str> = picks[..len]
                .iter()
                .enumerate()
                .map(|(i, &p)| FIELD_PIECES.get(p).copied().unwrap_or(valid[i % RESPONSE_FIELDS]))
                .collect();
            let decoded = match std::panic::catch_unwind(|| decode_response_fields(&fields, &mut LastModel::default())) {
                Ok(decoded) => decoded,
                Err(_) => panic!("decode_response_fields({fields:?}) panicked"),
            };
            if len != RESPONSE_FIELDS {
                prop_assert!(decoded.is_none(), "{fields:?} decoded");
            } else if fields == valid {
                prop_assert!(decoded.is_some(), "{fields:?} refused");
            }
        }
    }

    /// Field values a corrupt record may hold: empty, signs, overflowing
    /// and non-ASCII digits, truncated hex, bad escapes, multi-byte text.
    const FIELD_PIECES: [&str; 16] = [
        "",
        "-",
        "S",
        "L",
        "X",
        "12",
        "-1",
        "4294967296",
        "٣",
        "00000000000000ff",
        "000000000000ff",
        "+0000000000000ff",
        "\\",
        "\\x",
        "é🦀",
        "7ff8000000000000",
    ];

    #[test]
    fn seal_open_roundtrip_and_rejection() {
        let line = sealed("alpha\tbeta");
        assert_eq!(
            line,
            format!("alpha\tbeta\t{:016x}\n", fnv1a_str("alpha\tbeta"))
        );
        let body = line.strip_suffix('\n').unwrap();
        assert_eq!(open_line(body), Some("alpha\tbeta"));
        // Any byte flip invalidates the line.
        let corrupt = body.replace("alpha", "alphX");
        assert!(open_line(&corrupt).is_none());
        assert!(open_line("no checksum here").is_none());
    }

    #[test]
    fn f64_bits_roundtrip_exact() {
        for v in [0.0, -0.0, 0.1, f64::MIN_POSITIVE, f64::INFINITY] {
            let mut enc = String::new();
            push_hex64(&mut enc, v.to_bits());
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
        let (fp, decoded) = decode_response_fields(&fields, &mut LastModel::default()).unwrap();
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
    fn a_model_name_survives_encode_decode_encode_byte_for_byte() {
        for name in ["sim-gpt-3.5-turbo", "", "tab\tand\\slash", "naïve 🦀 model"] {
            let mut response = sample_response("Yes.", None);
            response.model = name.into();
            let first = encode_response_fields(7, &response);
            let fields: Vec<&str> = first.split('\t').collect();
            let (_, decoded) = decode_response_fields(&fields, &mut LastModel::default()).unwrap();
            assert_eq!(decoded.model, name);
            assert_eq!(decoded.model, response.model, "one handle per name");
            assert_eq!(encode_response_fields(7, &decoded), first);
        }
    }

    /// A store record's payload as the line-at-a-time replay decoded it:
    /// `split('\t')`, `str::parse` counts, `from_str_radix` hex, the
    /// char-loop unescape and a model name interned per record. The
    /// reference [`crate::store::parse_record`] must agree with.
    fn decode_by_split(payload: &str) -> Option<(u64, CompletionResponse)> {
        let fields: Vec<&str> = payload.split('\t').collect();
        let (&"R", f) = fields.split_first()? else {
            return None;
        };
        if f.len() != RESPONSE_FIELDS {
            return None;
        }
        let hex = crate::hash::parse_hex64_by_radix;
        let fingerprint = hex(f[0])?;
        let text = unescape_by_chars(f[1])?;
        let usage = Usage {
            prompt_tokens: f[2].parse().ok()?,
            completion_tokens: f[3].parse().ok()?,
        };
        let finish_reason = match f[4] {
            "S" => FinishReason::Stop,
            "L" => FinishReason::Length,
            _ => return None,
        };
        let model = ModelName::from(unescape_by_chars(f[5])?);
        let pricing = Pricing::new(f64::from_bits(hex(f[6])?), f64::from_bits(hex(f[7])?));
        let confidence = match f[8] {
            "-" => None,
            bits => Some(f64::from_bits(hex(bits)?)),
        };
        let response = CompletionResponse {
            text,
            usage,
            finish_reason,
            model,
            cached: false,
            pricing,
            confidence,
        };
        Some((fingerprint, response))
    }

    /// A decoded record with its floats as bits, so a NaN a damaged field
    /// decodes to compares equal to itself.
    type RecordBits = (u64, String, Usage, bool, String, [u64; 2], Option<u64>);

    fn bits((fingerprint, r): &(u64, CompletionResponse)) -> RecordBits {
        (
            *fingerprint,
            r.text.clone(),
            r.usage,
            r.finish_reason == FinishReason::Stop,
            r.model.to_string(),
            [r.pricing.usd_per_1k_input, r.pricing.usd_per_1k_output].map(f64::to_bits),
            r.confidence.map(f64::to_bits),
        )
    }

    /// What the four-line walk and the line-at-a-time one take of
    /// `records`: the bytes, and the records in order.
    fn both_walks(records: &str) -> [(usize, Vec<RecordBits>); 2] {
        let mut last_model = LastModel::default();
        let mut grouped = Vec::new();
        let taken = walk(
            records,
            |payload| crate::store::parse_record(payload, &mut last_model),
            |record| grouped.push(bits(&record)),
        );
        let mut by_line = Vec::new();
        let taken_by_line = walk_by_line(records, decode_by_split, |record| {
            by_line.push(bits(&record))
        });
        [(taken, grouped), (taken_by_line, by_line)]
    }

    /// Model names that escape to one another's text, and ordinary ones.
    const MODELS: [&str; 5] = [
        "sim-gpt-3.5-turbo",
        "a\nb",
        "a\\nb",
        "naïve 🦀 model",
        "sim-gpt-3.5-turbo",
    ];

    /// The `i`-th record line of a test log: texts of varied lengths, most
    /// with escapes, models that change and repeat, both finish reasons.
    fn record_line_at(i: usize) -> String {
        let text = match i % 4 {
            0 => format!("1. Yes\n2. No\n{}. Yes\n", i + 3),
            1 => format!("answer {i}: é🦀 \\ tab\there"),
            2 => "x".repeat(i),
            _ => format!(
                "Here is the sorted list:\n1. No\n2. Yes\n3. {}\n",
                "No".repeat(i)
            ),
        };
        let mut response = sample_response(&text, [None, Some(0.875)][i % 2]);
        response.model = MODELS[(i / 2) % MODELS.len()].into();
        response.usage.prompt_tokens = 200 + i as u32;
        if i % 5 == 3 {
            response.finish_reason = FinishReason::Length;
        }
        let mut line = String::from("R\t");
        push_response_fields(&mut line, 0x1000 + i as u64, &response);
        seal_line(&mut line);
        line
    }

    /// How a test damages one line of a log.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        /// The log ends half-way through the line.
        Torn,
        /// One hex digit of the checksum is another digit.
        Checksum,
        /// A field does not decode, under a checksum that matches.
        Field,
        /// The line has no checksum field.
        NoChecksum,
    }

    fn damaged(mut line: String, damage: Damage, i: usize) -> String {
        let body = line.len() - 1;
        match damage {
            Damage::Torn => line.truncate(line.len() / 2),
            Damage::Checksum => {
                let at = body - 1 - i % 16;
                let digit = if &line[at..=at] == "0" { "1" } else { "0" };
                line.replace_range(at..=at, digit);
            }
            Damage::Field => {
                let mut payload = line[..body - 17].to_owned();
                if i.is_multiple_of(2) {
                    payload = payload
                        .replacen("\tS\t", "\tX\t", 1)
                        .replacen("\tL\t", "\tX\t", 1);
                } else {
                    payload.insert_str(payload.find('\t').unwrap() + 20, "\\x");
                }
                seal_line(&mut payload);
                line = payload;
            }
            Damage::NoChecksum => line.replace_range(body - 17..body, ""),
        }
        line
    }

    #[test]
    fn the_four_line_walk_stops_where_the_line_at_a_time_walk_stops() {
        // Two whole groups of four and a short final group, or two whole
        // groups alone: every position of a group, and of a short one.
        for lines in [8, 11] {
            let records: Vec<String> = (0..lines).map(record_line_at).collect();
            let whole = records.concat();
            for prefix in 0..=lines {
                let log = records[..prefix].concat();
                let [grouped, by_line] = both_walks(&log);
                assert_eq!(grouped, by_line, "{prefix} whole lines");
                assert_eq!(grouped.0, log.len());
                assert_eq!(grouped.1.len(), prefix);
            }
            assert_eq!(both_walks(&whole)[0].1.len(), lines);
            for bad in 0..lines {
                for damage in [
                    Damage::Torn,
                    Damage::Checksum,
                    Damage::Field,
                    Damage::NoChecksum,
                ] {
                    let mut log = records[..bad].concat();
                    log.push_str(&damaged(records[bad].clone(), damage, bad));
                    if !matches!(damage, Damage::Torn) {
                        log.push_str(&records[bad + 1..].concat());
                    }
                    let [grouped, by_line] = both_walks(&log);
                    let case = format!("{lines} lines, line {bad} {damage:?}");
                    assert_eq!(grouped, by_line, "{case}");
                    assert_eq!(grouped.0, records[..bad].concat().len(), "{case}");
                    assert_eq!(grouped.1.len(), bad, "{case}");
                }
            }
        }
    }

    /// Bytes a damaged log may hold where one of its bytes was.
    const DAMAGE_BYTES: &[u8] = b"\n\t\\0afFgx-+ R";

    proptest! {
        #[test]
        fn a_damaged_log_walks_as_the_line_at_a_time_walk_walks_it(
            lines in 0usize..14,
            first in 0usize..40,
            at in any::<usize>(),
            byte in 0usize..DAMAGE_BYTES.len(),
            cut in any::<bool>(),
        ) {
            let mut log: Vec<u8> =
                (first..first + lines).map(record_line_at).collect::<String>().into_bytes();
            if !log.is_empty() {
                let at = at % log.len();
                if cut {
                    log.truncate(at);
                } else if log[at].is_ascii() {
                    log[at] = DAMAGE_BYTES[byte];
                }
            }
            // A cut may split a character; the reader drops that tail too.
            let log = match String::from_utf8(log) {
                Ok(log) => log,
                Err(e) => {
                    let valid = e.utf8_error().valid_up_to();
                    String::from_utf8(e.into_bytes()[..valid].to_vec()).unwrap()
                }
            };
            let [grouped, by_line] = both_walks(&log);
            prop_assert_eq!(grouped, by_line);
        }

        #[test]
        fn token_counts_parse_as_str_parse_parses_them(
            picks in prop::collection::vec(0usize..COUNT_PIECES.len(), 0..6),
        ) {
            let s: String = picks.iter().map(|&p| COUNT_PIECES[p]).collect();
            prop_assert_eq!(decode_u32(&s), s.parse::<u32>().ok(), "{:?}", s);
        }

        #[test]
        fn find_byte_finds_what_position_finds(
            len in 0usize..40,
            needle_at in prop::collection::vec(0usize..40, 0..3),
            needle in any::<u8>(),
        ) {
            let mut haystack: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37) | 0x80).collect();
            for &at in &needle_at {
                if at < len {
                    haystack[at] = needle;
                }
            }
            prop_assert_eq!(
                find_byte(&haystack, needle),
                haystack.iter().position(|&b| b == needle)
            );
        }
    }

    /// Pieces of a token-count field: digits, signs, a non-ASCII digit, and
    /// runs that reach past `u32::MAX`.
    const COUNT_PIECES: [&str; 10] = [
        "0",
        "7",
        "42",
        "+",
        "-",
        "٣",
        " ",
        "4294967295",
        "4294967296",
        "99999",
    ];

    #[test]
    fn a_model_field_names_what_it_unescapes_to_whatever_came_before() {
        // "a\nb" is stored as the text of the name "a\\nb": a record naming
        // the second must not reuse the first's handle, nor the reverse.
        let mut last_model = LastModel::default();
        let order = [0, 0, 1, 2, 1, 2, 2, 3, 0, 1, 1, 4];
        for &m in &order {
            let mut field = String::new();
            escape_into(&mut field, MODELS[m]);
            assert_eq!(
                last_model.name(&field),
                Some(ModelName::from(MODELS[m])),
                "{m}"
            );
        }
        assert_eq!(last_model.name("bad \\x escape"), None);
        assert_eq!(
            last_model.name("sim-gpt-3.5-turbo"),
            Some(ModelName::from(MODELS[0]))
        );
    }

    #[test]
    fn unescape_decodes_escapes_at_every_offset_of_an_eight_byte_step() {
        for len in 0..26 {
            for at in 0..len {
                let mut plain = "y".repeat(len);
                plain.replace_range(at..=at, "\n");
                let mut stored = String::new();
                escape_into(&mut stored, &plain);
                assert_eq!(
                    unescape(&stored).as_deref(),
                    Some(plain.as_str()),
                    "{stored:?}"
                );
                let mut bad = "y".repeat(len);
                bad.replace_range(at..=at, "\\");
                assert_eq!(
                    unescape(&bad).map(Cow::into_owned),
                    unescape_by_chars(&bad),
                    "{bad:?}"
                );
            }
        }
    }

    /// The identity decode: a payload as an owned record.
    fn owned(payload: &str) -> Option<String> {
        Some(payload.to_owned())
    }

    #[test]
    fn logfile_recovers_prefix_and_appends() {
        let path = temp_path("prefix");
        {
            let mut log = LogFile::open(&path, "test-log v1", owned, drop::<String>).unwrap();
            log.append(&sealed("one")).unwrap();
            log.append(&sealed("two")).unwrap();
        }
        // Tear the final record mid-line.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let mut seen = Vec::new();
        let mut log = LogFile::open(&path, "test-log v1", owned, |p| seen.push(p)).unwrap();
        assert_eq!(seen, vec!["one".to_string()]);
        log.append(&sealed("three")).unwrap();
        drop(log);

        let mut seen = Vec::new();
        drop(LogFile::open(&path, "test-log v1", owned, |p| seen.push(p)).unwrap());
        assert_eq!(seen, vec!["one".to_string(), "three".to_string()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_append_is_cut_back_so_the_next_follows_the_last_record() {
        let path = temp_path("failed-append");
        let mut log = LogFile::open(&path, "test-log v1", owned, drop::<String>).unwrap();
        log.append(&sealed("one")).unwrap();
        // A disk that fills half-way through the line.
        let half = |file: &mut File, bytes: &[u8]| {
            file.write_all(&bytes[..bytes.len() / 2])?;
            Err(std::io::ErrorKind::StorageFull.into())
        };
        assert!(log.append_with(&sealed("two"), half).is_err());
        let kept = format!("test-log v1\n{}", sealed("one"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), kept);
        log.append(&sealed("three")).unwrap();
        drop(log);
        let mut seen = Vec::new();
        drop(LogFile::open(&path, "test-log v1", owned, |p| seen.push(p)).unwrap());
        assert_eq!(seen, ["one", "three"]);

        // A cut the disk refuses as well (a read-only handle cannot shorten
        // the file): the log appends nothing after the torn bytes.
        let mut log = LogFile::over(File::open(&path).unwrap());
        let moved = |file: &mut File, _: &[u8]| {
            file.seek(SeekFrom::Current(1))?;
            Err(std::io::ErrorKind::StorageFull.into())
        };
        assert!(log.append_with(&sealed("four"), moved).is_err());
        let refused = log.append(&sealed("five")).unwrap_err();
        assert!(refused.to_string().contains("torn record"), "{refused}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn logfile_consumer_rejection_truncates() {
        let path = temp_path("reject");
        {
            let mut log = LogFile::open(&path, "test-log v1", owned, drop::<String>).unwrap();
            log.append(&sealed("good")).unwrap();
            log.append(&sealed("BAD")).unwrap();
            log.append(&sealed("after")).unwrap();
        }
        // The consumer's field codec refuses "BAD": the suffix is dropped.
        let mut seen = Vec::new();
        drop(
            LogFile::open(
                &path,
                "test-log v1",
                |p| (p != "BAD").then(|| p.to_owned()),
                |p| seen.push(p),
            )
            .unwrap(),
        );
        assert_eq!(seen, vec!["good".to_string()]);
        let kept = format!("test-log v1\n{}", sealed("good"));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            kept,
            "rejected suffix truncated"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checksum_drops_the_suffix() {
        let path = temp_path("corrupt");
        {
            let mut log = LogFile::open(&path, "test-log v1", owned, drop::<String>).unwrap();
            for payload in ["ok", "will corrupt", "after corruption"] {
                log.append(&sealed(payload)).unwrap();
            }
        }
        // Flip a byte inside the second record. Recovery is prefix-based:
        // everything from the first bad line on is dropped, even the later
        // well-formed record.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("will corrupt", "Xill corrupt")).unwrap();
        let mut seen = Vec::new();
        let on_record = |p| seen.push(p);
        drop(LogFile::open(&path, "test-log v1", owned, on_record).unwrap());
        assert_eq!(seen, ["ok"]);
        let kept = format!("test-log v1\n{}", sealed("ok"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), kept);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_header_is_refused() {
        let path = temp_path("foreign");
        std::fs::write(&path, "not a log\n").unwrap();
        let err = match LogFile::open(&path, "test-log v1", owned, drop::<String>) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a foreign header opened"),
        };
        for part in ["\"not a log\"", "\"test-log v1\"", "remove the file"] {
            assert!(err.contains(part), "{part} in {err}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"not a log\n");
        std::fs::remove_file(&path).ok();
    }
}
