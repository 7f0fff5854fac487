// Crash-safe file primitives shared by every durable store.
//
// The artifact store and the serve snapshot are both checksummed
// directories, and both run on the one store defined here: StageDirReplace
// stages a replacement in `<dir>.tmp` and commits it by rename,
// WriteStoreDir writes payload files plus a manifest recording each file's
// size and FNV-1a checksum and fsyncs them, and ReadStoreDir verifies every
// listed file before a caller parses anything. Payloads are parsed from
// memory by TokenScanner. The write-ahead log shares the file primitives.
// Every helper keeps the fault points "artifact/write", "artifact/read",
// "artifact/fsync" and "artifact/rename", so the seeded fault sweeps
// exercise every durable path.
#ifndef GRGAD_UTIL_ATOMIC_IO_H_
#define GRGAD_UTIL_ATOMIC_IO_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace grgad {

/// Value of hex digit `c`, or -1. A 256-entry table instead of compare
/// chains: bulk snapshot payloads decode one nibble per character, so this
/// lookup sits in the innermost recovery loop and must stay branch-free.
inline int HexNibble(char c) {
  static constexpr auto kTable = [] {
    std::array<int8_t, 256> t{};
    t.fill(-1);
    for (int d = '0'; d <= '9'; ++d) t[d] = static_cast<int8_t>(d - '0');
    for (int d = 'a'; d <= 'f'; ++d) t[d] = static_cast<int8_t>(d - 'a' + 10);
    for (int d = 'A'; d <= 'F'; ++d) t[d] = static_cast<int8_t>(d - 'A' + 10);
    return t;
  }();
  return kTable[static_cast<unsigned char>(c)];
}

/// 17 significant digits round-trip any finite IEEE-754 double exactly —
/// the on-disk precision of every durable double in the system.
std::string FormatExactDouble(double v);

/// The raw IEEE-754 bit pattern of `v` as 16 lower-case hex digits —
/// trivially bit-exact (it IS the bits) and parsed by table lookup alone,
/// ~3x cheaper than even fast-path decimal. The encoding for bulk durable
/// payloads (snapshot attribute rows) where parse speed bounds recovery
/// time; human-facing singles keep FormatExactDouble. Reader counterpart:
/// the fixed-width row decode of ParseGraphSnapshot.
std::string FormatDoubleBits(double v);

/// FNV-1a 64 over the bytes of `s` (the checksum recorded by manifests and
/// WAL records).
uint64_t Fnv1a64(const std::string& s);

/// Lower-case, zero-padded 16-digit hex of `v` (checksum wire form).
std::string HexU64(uint64_t v);

/// Truncating whole-file write ("artifact/write" fault point). Not durable
/// on its own — pair with FsyncPath before any rename that publishes it.
Status WriteTextFile(const std::string& path, const std::string& content);

/// Whole-file read ("artifact/read" fault point).
Result<std::string> ReadTextFile(const std::string& path);

/// fsync of a file or directory via its POSIX descriptor ("artifact/fsync"
/// fault point); rename-commit is only crash-safe once the staged files AND
/// the staging directory itself are durable.
Status FsyncPath(const std::string& path, bool is_dir);

/// The first lines of a store manifest: "<magic> <version>", then one
/// "<key> <value>" line per entry, in order.
struct ManifestHeader {
  std::string magic;
  long long version = 0;
  std::vector<std::pair<std::string, std::string>> values;

  /// Value of the first entry named `key`, or null.
  const std::string* Find(std::string_view key) const;
};

/// One payload file of a store directory.
struct StoreFile {
  std::string name;
  std::string content;
};

/// Writes `files` and then the manifest `manifest_name` into directory
/// `dir` (created if absent). The manifest is `header` followed by one
/// "file <name> <bytes> <fnv1a-hex>" line per file. Every file, then `dir`
/// itself, is fsynced. `between_files_fault`, when set, is a fault point
/// checked between consecutive payload writes, so a crash can land in the
/// middle of staging. Not atomic on its own: run it under StageDirReplace.
Status WriteStoreDir(const std::string& dir, const std::string& manifest_name,
                     const ManifestHeader& header,
                     const std::vector<StoreFile>& files,
                     const char* between_files_fault = nullptr);

/// Atomically replaces directory `target` with what `write` stages. Stale
/// `<target>.tmp` / `<target>.old` siblings from a crashed save are cleared,
/// `<target>.tmp` is created and handed to `write`, and the result is
/// published by the rename dance (target -> target.old, tmp -> target, drop
/// .old) with the "artifact/rename" fault point checked first. rename(2)
/// cannot replace a non-empty directory, hence the dance. On any failure
/// the tmp directory is removed and the previous `target` is left intact; a
/// hard crash between the renames leaves `target` absent — NotFound on
/// load, never a torn mixture that parses. A final parent-directory fsync
/// is best-effort, since the commit has already happened.
Status StageDirReplace(const std::string& target,
                       const std::function<Status(const std::string& tmp)>&
                           write);

/// A store directory whose listed files all passed their size and checksum
/// checks, in manifest order.
struct StoreDir {
  ManifestHeader header;
  std::vector<StoreFile> files;

  /// Content of the listed file `name`, or null when the manifest does not
  /// list it.
  const std::string* Find(std::string_view name) const;
};

/// Reads the store directory `dir` written by WriteStoreDir. NotFound when
/// `dir/manifest_name` is absent. DataLoss when the manifest is malformed,
/// or when a listed file is missing, has the wrong size or fails its
/// checksum; the message names the file. Each listed file is read once.
/// The caller checks the header's magic, version and keys.
Result<StoreDir> ReadStoreDir(const std::string& dir,
                              const std::string& manifest_name);

/// Whitespace-token scanner over an in-memory durable payload, the load-path
/// counterpart of the append-only text writers above. istringstream
/// extraction costs ~1 us per numeric token, which made snapshot recovery
/// scale with the text size instead of the disk: 8000 nodes of 16-d exact
/// doubles parsed slower than they fsynced. from_chars-based extraction is
/// ~20x cheaper and stricter — a token must be a COMPLETE number (no
/// "123abc" prefix reads), which is the right posture for checksummed
/// machine-written state where any malformed token means damage.
///
/// The scanned string must outlive the scanner (tokens are views into it).
class TokenScanner {
 public:
  explicit TokenScanner(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}
  explicit TokenScanner(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Next whitespace-delimited token; false at end of input.
  bool Token(std::string_view* out);
  /// Next token must equal `expected` exactly.
  bool Keyword(std::string_view expected);
  /// Next token parsed fully as a signed 64-bit integer / decimal double.
  bool I64(long long* out);
  bool F64(double* out);
  /// Next token must be exactly 16 hex digits — the HexU64 wire form.
  bool Hex64(uint64_t* out);
  /// True when only whitespace remains (the "no trailing data" check).
  bool AtEnd();
  /// The whitespace class tokens are split on. Locale-free: std::isspace
  /// is an opaque per-character libc call through the locale table, and
  /// over a multi-megabyte snapshot that one call was the largest parse
  /// cost.
  static bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  /// Unconsumed input (may start with whitespace) — lets a caller hand a
  /// regular trailing section (e.g. fixed-width rows) to parallel workers.
  std::string_view Remaining() const {
    return std::string_view(p_, static_cast<size_t>(end_ - p_));
  }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace grgad

#endif  // GRGAD_UTIL_ATOMIC_IO_H_
