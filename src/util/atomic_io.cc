#include "src/util/atomic_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/util/fault.h"

namespace grgad {

std::string FormatExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatDoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return HexU64(bits);
}

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HexU64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check("artifact/write"));
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << content;
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<std::string> ReadTextFile(const std::string& path) {
  GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check("artifact/read"));
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open: " + path);
  // Sized read into the final buffer: rdbuf-to-stringstream doubles the
  // copy, which recovery pays on every multi-megabyte snapshot file.
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot size: " + path);
  std::string content(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (size > 0 && !in.read(content.data(), size)) {
    return Status::IoError("cannot read: " + path);
  }
  return content;
}

Status FsyncPath(const std::string& path, bool is_dir) {
  GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check("artifact/fsync"));
  const int fd =
      ::open(path.c_str(), is_dir ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("fsync failed: " + path);
  return Status::Ok();
}

bool TokenScanner::Token(std::string_view* out) {
  while (p_ < end_ && IsSpace(*p_)) ++p_;
  if (p_ == end_) return false;
  const char* start = p_;
  while (p_ < end_ && !IsSpace(*p_)) ++p_;
  *out = std::string_view(start, static_cast<size_t>(p_ - start));
  return true;
}

bool TokenScanner::Keyword(std::string_view expected) {
  std::string_view token;
  return Token(&token) && token == expected;
}

bool TokenScanner::I64(long long* out) {
  std::string_view token;
  if (!Token(&token)) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool TokenScanner::F64(double* out) {
  std::string_view token;
  if (!Token(&token)) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool TokenScanner::Hex64(uint64_t* out) {
  std::string_view token;
  if (!Token(&token) || token.size() != 16) return false;
  uint64_t bits = 0;
  int bad = 0;
  for (char c : token) {
    const int d = HexNibble(c);
    bad |= d;
    bits = (bits << 4) | static_cast<uint64_t>(d & 0xf);
  }
  if (bad < 0) return false;
  *out = bits;
  return true;
}

bool TokenScanner::AtEnd() {
  while (p_ < end_ && IsSpace(*p_)) ++p_;
  return p_ == end_;
}

const std::string* ManifestHeader::Find(std::string_view key) const {
  for (const auto& [k, v] : values) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::string* StoreDir::Find(std::string_view name) const {
  for (const StoreFile& file : files) {
    if (file.name == name) return &file.content;
  }
  return nullptr;
}

Status WriteStoreDir(const std::string& dir, const std::string& manifest_name,
                     const ManifestHeader& header,
                     const std::vector<StoreFile>& files,
                     const char* between_files_fault) {
  namespace fs = std::filesystem;
  std::string manifest =
      header.magic + " " + std::to_string(header.version) + "\n";
  for (const auto& [key, value] : header.values) {
    manifest += key + " " + value + "\n";
  }
  for (const StoreFile& file : files) {
    manifest += "file " + file.name + " " +
                std::to_string(file.content.size()) + " " +
                HexU64(Fnv1a64(file.content)) + "\n";
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  const fs::path base(dir);
  for (size_t i = 0; i < files.size(); ++i) {
    if (i > 0 && between_files_fault != nullptr) {
      GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check(between_files_fault));
    }
    GRGAD_RETURN_IF_ERROR(
        WriteTextFile((base / files[i].name).string(), files[i].content));
  }
  GRGAD_RETURN_IF_ERROR(WriteTextFile((base / manifest_name).string(),
                                      manifest));
  for (const StoreFile& file : files) {
    GRGAD_RETURN_IF_ERROR(
        FsyncPath((base / file.name).string(), /*is_dir=*/false));
  }
  GRGAD_RETURN_IF_ERROR(
      FsyncPath((base / manifest_name).string(), /*is_dir=*/false));
  return FsyncPath(dir, /*is_dir=*/true);
}

Status StageDirReplace(const std::string& target,
                       const std::function<Status(const std::string& tmp)>&
                           write) {
  namespace fs = std::filesystem;
  const std::string tmp = target + ".tmp";
  const std::string old = target + ".old";
  std::error_code ec;
  fs::remove_all(tmp, ec);  // Stale leftovers from a crashed save.
  fs::remove_all(old, ec);
  ec.clear();
  fs::create_directories(tmp, ec);
  if (ec) return Status::IoError("cannot create " + tmp + ": " + ec.message());
  const auto abandon = [&](Status error) {
    std::error_code cleanup;
    fs::remove_all(tmp, cleanup);
    return error;
  };
  if (Status staged = write(tmp); !staged.ok()) return abandon(staged);
  if (Status fault = FaultInjector::Global().Check("artifact/rename");
      !fault.ok()) {
    return abandon(fault);
  }
  const bool had_target = fs::exists(target);
  if (had_target) {
    fs::rename(target, old, ec);
    if (ec) {
      return abandon(Status::IoError("cannot move aside " + target + ": " +
                                     ec.message()));
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    std::error_code restore;
    if (had_target) fs::rename(old, target, restore);
    return abandon(Status::IoError("cannot commit " + tmp + " -> " + target +
                                   ": " + ec.message()));
  }
  if (had_target) fs::remove_all(old, ec);
  // Best-effort and outside the fault points: the commit already happened.
  const fs::path target_path(target);
  const fs::path parent =
      target_path.has_parent_path() ? target_path.parent_path() : ".";
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  return Status::Ok();
}

Result<StoreDir> ReadStoreDir(const std::string& dir,
                              const std::string& manifest_name) {
  namespace fs = std::filesystem;
  const fs::path base(dir);
  const std::string manifest_path = (base / manifest_name).string();
  std::error_code ec;
  if (!fs::exists(manifest_path, ec)) {
    return Status::NotFound("no manifest at " + manifest_path);
  }
  auto manifest = ReadTextFile(manifest_path);
  if (!manifest.ok()) return manifest.status();
  const auto malformed = [&](const std::string& what) {
    return Status::DataLoss("malformed manifest " + manifest_path + ": " +
                            what);
  };

  // Line by line, so a line with a missing or extra token cannot shift
  // every later entry. Each listed file is verified as its line is read.
  StoreDir out;
  bool have_header = false;
  std::string_view rest(manifest.value());
  while (!rest.empty()) {
    const size_t nl = std::min(rest.find('\n'), rest.size());
    TokenScanner line(rest.substr(0, nl));
    rest.remove_prefix(std::min(nl + 1, rest.size()));
    std::string_view key, value;
    if (!line.Token(&key)) continue;  // Blank line.
    if (!have_header) {
      out.header.magic = std::string(key);
      if (!line.I64(&out.header.version) || !line.AtEnd()) {
        return malformed("bad header line");
      }
      have_header = true;
      continue;
    }
    if (key != "file") {
      if (!line.Token(&value) || !line.AtEnd()) {
        return malformed("bad entry '" + std::string(key) + "'");
      }
      out.header.values.emplace_back(key, value);
      continue;
    }
    long long bytes = 0;
    uint64_t checksum = 0;
    // Names come from untrusted bytes: every read stays inside `dir`.
    if (!line.Token(&value) || !line.I64(&bytes) || bytes < 0 ||
        !line.Hex64(&checksum) || !line.AtEnd() || value == "." ||
        value == ".." || value.find('/') != std::string_view::npos) {
      return malformed("bad file entry");
    }
    const std::string path = (base / value).string();
    if (!fs::exists(path, ec)) return Status::DataLoss("missing file " + path);
    auto content = ReadTextFile(path);
    if (!content.ok()) return content.status();
    if (content.value().size() != static_cast<uint64_t>(bytes)) {
      return Status::DataLoss("truncated file " + path + ": manifest records " +
                              std::to_string(bytes) + " bytes, found " +
                              std::to_string(content.value().size()));
    }
    if (Fnv1a64(content.value()) != checksum) {
      return Status::DataLoss("checksum mismatch in " + path);
    }
    out.files.push_back({std::string(value), std::move(content).value()});
  }
  if (!have_header) return malformed("empty");
  return out;
}

}  // namespace grgad
