//! The one on-disk [`Store`] behind the result cache and the bug
//! repository, tested once over both codecs.
//!
//! Each codec's sample value is its golden fixture under `fixtures/`: one
//! entry written by the code that introduced the format, kept in the
//! store's own directory layout. Decoding it and re-encoding it
//! byte-for-byte pins compatibility with entries users already have on
//! disk, not just agreement of today's encoder with today's decoder.

use squality_backend::protocol::read_frame;
use squality_core::{BugCodec, EntryCodec, ResultCodec, Store};
use std::path::Path;

/// The fixture store of codec `C` under `fixtures/<dir>` and the key of
/// its single entry (read back from the file name).
fn fixture<C: EntryCodec>(dir: &str) -> (Store<C>, C::Key) {
    let store =
        Store::<C>::new(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(dir));
    let path = store.entry_paths().pop().expect("one fixture entry");
    let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 file name");
    let key = C::parse_stem(stem).expect("fixture file name is a key");
    (store, key)
}

fn fixture_text<C: EntryCodec>(store: &Store<C>, key: &C::Key) -> String {
    std::fs::read_to_string(store.entry_path(key)).expect("fixture readable")
}

fn temp_store<C: EntryCodec>(tag: &str) -> Store<C> {
    let dir =
        std::env::temp_dir().join(format!("squality-store-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Store::new(dir)
}

/// Overwrite (or create) `key`'s entry file with raw bytes.
fn plant<C: EntryCodec>(store: &Store<C>, key: &C::Key, bytes: impl AsRef<[u8]>) {
    let path = store.entry_path(key);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, bytes).unwrap();
}

fn golden_fixture_roundtrips_byte_for_byte<C: EntryCodec>(dir: &str) {
    let (golden, key) = fixture::<C>(dir);
    let value = golden.lookup(&key).expect("golden fixture decodes");
    assert_eq!((golden.stats().hits, golden.stats().corrupt), (1, 0));
    let copy = temp_store::<C>(&format!("golden-{dir}"));
    copy.store(&key, &value);
    let relative =
        |store: &Store<C>| store.entry_path(&key).strip_prefix(store.root()).unwrap().to_path_buf();
    assert_eq!(relative(&copy), relative(&golden), "on-disk layout moved");
    assert_eq!(
        std::fs::read(copy.entry_path(&key)).unwrap(),
        std::fs::read(golden.entry_path(&key)).unwrap(),
        "re-encoding the fixture changed its bytes"
    );
    copy.clear().unwrap();
}

fn version_mismatch_is_a_miss<C: EntryCodec>(dir: &str) {
    let (golden, key) = fixture::<C>(dir);
    let store = temp_store::<C>(&format!("version-{dir}"));
    let bumped = fixture_text(&golden, &key).replacen(
        &format!("v{}", C::VERSION),
        &format!("v{}", C::VERSION + 1),
        1,
    );
    plant(&store, &key, bumped);
    assert!(store.lookup(&key).is_none(), "future-version entry must miss");
    assert_eq!(store.stats().corrupt, 1);
    store.clear().unwrap();
}

fn truncated_entry_is_a_miss<C: EntryCodec>(dir: &str) {
    let (golden, key) = fixture::<C>(dir);
    let store = temp_store::<C>(&format!("truncated-{dir}"));
    let full = fixture_text(&golden, &key);
    // Drop the END terminator and a bit more — a torn write.
    plant(&store, &key, &full[..full.len() - "END\n".len() - 7]);
    assert!(store.lookup(&key).is_none(), "truncated entry must miss");
    assert_eq!(store.stats().corrupt, 1);
    store.clear().unwrap();
}

fn garbage_entry_is_a_miss<C: EntryCodec>(dir: &str) {
    let (_, key) = fixture::<C>(dir);
    let store = temp_store::<C>(&format!("garbage-{dir}"));
    plant(&store, &key, "not an entry at all\n\0\0\0");
    assert!(store.lookup(&key).is_none(), "garbage entry must miss");
    let stats = store.stats();
    assert_eq!((stats.misses, stats.corrupt), (1, 1));
    store.clear().unwrap();
}

fn racing_writers_leave_one_valid_entry<C: EntryCodec>(dir: &str)
where
    C::Key: Sync,
    C::Value: Sync,
{
    let (golden, key) = fixture::<C>(dir);
    let value = golden.lookup(&key).unwrap();
    let store = temp_store::<C>(&format!("race-{dir}"));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..20 {
                    store.store(&key, &value);
                }
            });
        }
    });
    assert!(store.lookup(&key).is_some(), "a racing store still leaves a valid entry");
    assert_eq!(fixture_text(&store, &key), fixture_text(&golden, &key));
    // No temp litter: exactly the one entry file remains.
    assert_eq!(store.disk_usage().0, 1);
    let shard = store.entry_path(&key).parent().unwrap().to_path_buf();
    let litter: Vec<_> = std::fs::read_dir(shard)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .collect();
    assert!(litter.is_empty(), "temp files must not leak: {litter:?}");
    store.clear().unwrap();
}

macro_rules! store_tests {
    ($($codec_name:ident: $codec:ty, $dir:literal;)*) => {$(
        mod $codec_name {
            use super::*;

            #[test]
            fn golden_fixture_roundtrips_byte_for_byte() {
                super::golden_fixture_roundtrips_byte_for_byte::<$codec>($dir);
            }

            #[test]
            fn version_mismatch_is_a_miss() {
                super::version_mismatch_is_a_miss::<$codec>($dir);
            }

            #[test]
            fn truncated_entry_is_a_miss() {
                super::truncated_entry_is_a_miss::<$codec>($dir);
            }

            #[test]
            fn garbage_entry_is_a_miss() {
                super::garbage_entry_is_a_miss::<$codec>($dir);
            }

            #[test]
            fn racing_writers_leave_one_valid_entry() {
                super::racing_writers_leave_one_valid_entry::<$codec>($dir);
            }
        }
    )*};
}

store_tests! {
    result_cache: ResultCodec, "result-cache";
    bug_store: BugCodec, "bug-store";
}

/// Every mutation of the fixture entry: truncation at each line, a bit
/// flip at each byte, and each run of digits (every count, tag and
/// number field) replaced by `0`, `1`, huge values and a non-number.
fn mutations(text: &str) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut cut = 0;
    for line in text.split_inclusive('\n') {
        out.push(text.as_bytes()[..cut].to_vec());
        cut += line.len();
    }
    for (i, _) in text.bytes().enumerate() {
        let mut flipped = text.as_bytes().to_vec();
        flipped[i] ^= 1 << (i % 8);
        out.push(flipped);
    }
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let end = (i..bytes.len()).find(|&j| !bytes[j].is_ascii_digit()).unwrap_or(bytes.len());
        for with in ["0", "1", "18446744073709551615", "99999999999999999999999", "x"] {
            out.push([&text[..i], with, &text[end..]].concat().into_bytes());
        }
        i = end;
    }
    out
}

/// Feed every mutation of codec `C`'s fixture to a lookup: each one
/// yields a value or a miss counted as corrupt, never a panic.
fn mutated_entries_miss_or_decode<C: EntryCodec>(dir: &str) -> usize {
    let (golden, key) = fixture::<C>(dir);
    let store = temp_store::<C>(&format!("mutate-{dir}"));
    let cases = mutations(&fixture_text(&golden, &key));
    for (case, bytes) in cases.iter().enumerate() {
        plant(&store, &key, bytes);
        let before = store.stats();
        let got = store.lookup(&key);
        let after = store.stats();
        if got.is_some() {
            assert_eq!(after.hits, before.hits + 1, "{dir} case {case}");
        } else {
            assert_eq!(after.corrupt, before.corrupt + 1, "{dir} case {case}: uncounted miss");
        }
    }
    store.clear().unwrap();
    cases.len()
}

#[test]
fn corrupt_input_is_a_miss_never_a_panic() {
    assert!(mutated_entries_miss_or_decode::<ResultCodec>("result-cache") > 100);
    assert!(mutated_entries_miss_or_decode::<BugCodec>("bug-store") > 100);

    // The wire decoder takes its length line from an untrusted peer too:
    // a length it cannot satisfy is `InvalidData`, never an allocation.
    let frame = |input: &str| read_frame(&mut std::io::BufReader::new(input.as_bytes()));
    for len in ["18446744073709551615", "99999999999999999999999", "1000000000000", "-1", "x", ""] {
        let err = frame(&format!("{len}\npayload")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "length {len:?}");
    }
    assert_eq!(frame("7\npayload").unwrap().unwrap(), b"payload");
    assert_eq!(frame("0\n").unwrap().unwrap(), b"");
    assert_eq!(frame("8\npayload").unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    assert!(frame("").unwrap().is_none(), "clean EOF");
}
