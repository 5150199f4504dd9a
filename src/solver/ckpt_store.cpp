#include "solver/ckpt_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "iosim/simfs.hpp"
#include "resilience/fault.hpp"
#include "trace/trace.hpp"

namespace s3d::solver {

namespace {

namespace stdfs = std::filesystem;

void sleep_s(double seconds) {
  if (seconds > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Bounds-checked cursor over an in-memory file image (restart-style
/// typed errors naming the file).
class ByteReader {
 public:
  ByteReader(const std::string& image, const std::string& path)
      : data_(image), path_(path) {}

  template <typename T>
  T get() {
    S3D_REQUIRE(sizeof(T) <= remaining(), "truncated value in " + path_);
    T v{};
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void raw(void* dst, std::size_t n) {
    S3D_REQUIRE(n <= remaining(), "truncated payload in " + path_);
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t pos() const { return pos_; }

 private:
  const std::string& data_;
  std::string path_;
  std::size_t pos_ = 0;
};

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::size_t block_len(std::uint64_t total, std::uint32_t idx, int block) {
  const std::uint64_t lo = static_cast<std::uint64_t>(idx) * block;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(block), total - lo));
}

}  // namespace

// ---------------------------------------------------------------------------
// io helpers (shared with checkpoint.cpp)

void atomic_write_file(const std::string& path, const std::string& image) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    S3D_REQUIRE(f.good(), "cannot open for writing: " + tmp);
    f.write(image.data(), static_cast<std::streamsize>(image.size()));
    f.flush();
    S3D_REQUIRE(f.good(), "write failed: " + tmp);
  }
  std::error_code ec;
  stdfs::rename(tmp, path, ec);
  S3D_REQUIRE(!ec,
              "rename failed: " + tmp + " -> " + path + ": " + ec.message());
}

std::string read_file_image(const std::string& path, const char* kind) {
  std::ifstream f(path, std::ios::binary);
  S3D_REQUIRE(f.good(), std::string("cannot open ") + kind + ": " + path +
                            " (missing or unreadable)");
  std::ostringstream ss;
  ss << f.rdbuf();
  return std::move(ss).str();
}

// ---------------------------------------------------------------------------
// image gather/scatter

CkptImage image_from_solver(const Solver& s) {
  const Layout& l = s.layout();
  CkptImage img;
  img.nx = l.nx;
  img.ny = l.ny;
  img.nz = l.nz;
  img.nv = s.state().nv();
  img.t = s.time();
  img.steps = s.steps_taken();
  const std::size_t pts = static_cast<std::size_t>(l.nx) * l.ny * l.nz;
  img.data.resize(static_cast<std::size_t>(img.nv + 1) * pts);
  // Interior of each conserved variable, x fastest, then the primitive
  // temperature field: T is genuine solver state (prim_from_conserved
  // warm-starts its Newton solve from it), so restores replay bitwise
  // only if T travels with the image.
  const double* T_field = s.rhs().prim().T.data();
  double* dst = img.data.data();
  for (int v = 0; v < img.nv + 1; ++v) {
    const double* var = v < img.nv ? s.state().var(v) : T_field;
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j) {
        const std::size_t row = l.at(0, j, k);
        std::memcpy(dst, var + row, static_cast<std::size_t>(l.nx) *
                                        sizeof(double));
        dst += l.nx;
      }
  }
  return img;
}

void commit_image(const CkptImage& img, Solver& s) {
  const Layout& l = s.layout();
  S3D_REQUIRE(img.nx == l.nx && img.ny == l.ny && img.nz == l.nz &&
                  img.nv == s.state().nv(),
              "restart grid/variable mismatch: image does not fit this "
              "solver");
  const std::size_t pts = static_cast<std::size_t>(l.nx) * l.ny * l.nz;
  S3D_REQUIRE(img.data.size() ==
                  static_cast<std::size_t>(img.nv + 1) * pts,
              "checkpoint image payload size mismatch");
  const double* src = img.data.data();
  for (int v = 0; v < img.nv + 1; ++v) {
    double* var = v < img.nv ? s.state().var(v) : s.rhs().prim().T.data();
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j) {
        const std::size_t row = l.at(0, j, k);
        std::memcpy(var + row, src, static_cast<std::size_t>(l.nx) *
                                        sizeof(double));
        src += l.nx;
      }
  }
  s.set_time(img.t, static_cast<int>(img.steps));  // invalidates cached dt
}

// ---------------------------------------------------------------------------
// base (restart-file) serialization — byte-identical to PR 2

std::string serialize_base(const CkptImage& img) {
  std::ostringstream f(std::ios::binary);
  Fnv1a64 hash;
  put(f, kRestartMagic);
  put<std::int32_t>(f, img.nx);
  put<std::int32_t>(f, img.ny);
  put<std::int32_t>(f, img.nz);
  put<std::int32_t>(f, img.nv);
  put<double>(f, img.t);
  put<std::int64_t>(f, img.steps);
  hash.update_value<std::int32_t>(img.nx);
  hash.update_value<std::int32_t>(img.ny);
  hash.update_value<std::int32_t>(img.nz);
  hash.update_value<std::int32_t>(img.nv);
  hash.update_value<double>(img.t);
  hash.update_value<std::int64_t>(img.steps);
  f.write(reinterpret_cast<const char*>(img.data.data()),
          static_cast<std::streamsize>(img.data.size() * sizeof(double)));
  hash.update(img.data.data(), img.data.size() * sizeof(double));
  // Trailing integrity checksum over header fields + payload; the reader
  // refuses corrupted or truncated files instead of silently loading them.
  put<std::uint64_t>(f, hash.digest());
  return std::move(f).str();
}

CkptImage parse_base(const std::string& image, const std::string& path,
                     const int* expect) {
  ByteReader r(image, path);
  S3D_REQUIRE(r.remaining() >= sizeof(std::uint64_t) &&
                  [&] {
                    std::uint64_t m = 0;
                    std::memcpy(&m, image.data(), sizeof(m));
                    return m == kRestartMagic;
                  }(),
              "not a restart file: " + path);
  r.get<std::uint64_t>();  // magic, checked above
  CkptImage img;
  Fnv1a64 hash;
  img.nx = r.get<std::int32_t>();
  img.ny = r.get<std::int32_t>();
  img.nz = r.get<std::int32_t>();
  img.nv = r.get<std::int32_t>();
  if (expect)
    S3D_REQUIRE(img.nx == expect[0] && img.ny == expect[1] &&
                    img.nz == expect[2] && img.nv == expect[3],
                "restart grid/variable mismatch: " + path);
  img.t = r.get<double>();
  img.steps = r.get<std::int64_t>();
  hash.update_value<std::int32_t>(img.nx);
  hash.update_value<std::int32_t>(img.ny);
  hash.update_value<std::int32_t>(img.nz);
  hash.update_value<std::int32_t>(img.nv);
  hash.update_value<double>(img.t);
  hash.update_value<std::int64_t>(img.steps);
  const std::size_t pts = static_cast<std::size_t>(img.nx) * img.ny * img.nz;
  const std::size_t nrec = static_cast<std::size_t>(img.nv) + 1;
  S3D_REQUIRE(img.nx >= 1 && img.ny >= 1 && img.nz >= 1 && img.nv >= 1 &&
                  r.remaining() >= nrec * pts * sizeof(double) +
                                       sizeof(std::uint64_t),
              "truncated restart: " + path);
  img.data.resize(nrec * pts);
  r.raw(img.data.data(), img.data.size() * sizeof(double));
  hash.update(img.data.data(), img.data.size() * sizeof(double));
  const auto stored = r.get<std::uint64_t>();
  S3D_REQUIRE(stored == hash.digest(),
              "restart checksum mismatch (corrupted file): " + path +
                  ": stored=" + hex64(stored) +
                  " computed=" + hex64(hash.digest()));
  return img;
}

// ---------------------------------------------------------------------------
// delta codec

CkptDelta diff_image(const std::vector<double>& prev,
                     const std::vector<double>& next, int block) {
  S3D_REQUIRE(prev.size() == next.size(),
              "delta diff: image sizes differ");
  S3D_REQUIRE(block >= 1, "delta diff: block granule must be >= 1");
  CkptDelta d;
  d.total = next.size();
  const std::uint64_t nblocks =
      (d.total + static_cast<std::uint64_t>(block) - 1) / block;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const std::size_t lo = static_cast<std::size_t>(b) * block;
    const std::size_t len =
        block_len(d.total, static_cast<std::uint32_t>(b), block);
    if (std::memcmp(prev.data() + lo, next.data() + lo,
                    len * sizeof(double)) != 0) {
      d.blocks.push_back(static_cast<std::uint32_t>(b));
      d.payload.insert(d.payload.end(), next.begin() + lo,
                       next.begin() + lo + len);
    }
  }
  return d;
}

void apply_delta(std::vector<double>& data, const CkptDelta& d, int block) {
  S3D_REQUIRE(data.size() == d.total,
              "delta replay: image size does not match the delta record");
  std::size_t off = 0;
  for (const std::uint32_t b : d.blocks) {
    const std::size_t lo = static_cast<std::size_t>(b) * block;
    const std::size_t len = block_len(d.total, b, block);
    S3D_REQUIRE(lo + len <= data.size() && off + len <= d.payload.size(),
                "delta replay: block out of range");
    std::memcpy(data.data() + lo, d.payload.data() + off,
                len * sizeof(double));
    off += len;
  }
}

namespace {

/// Delta file layout: magic, dims, t, steps, gen, prev, block, total,
/// ndirty, then {idx u32, block FNV u64, payload} per dirty block, and a
/// trailing whole-file FNV (over everything before it) so any single bit
/// flip is rejected before the record is interpreted.
std::string serialize_delta(const CkptImage& img, const CkptDelta& d,
                            long gen, long prev, int block) {
  std::ostringstream f(std::ios::binary);
  put(f, kDeltaMagic);
  put<std::int32_t>(f, img.nx);
  put<std::int32_t>(f, img.ny);
  put<std::int32_t>(f, img.nz);
  put<std::int32_t>(f, img.nv);
  put<double>(f, img.t);
  put<std::int64_t>(f, img.steps);
  put<std::int64_t>(f, static_cast<std::int64_t>(gen));
  put<std::int64_t>(f, static_cast<std::int64_t>(prev));
  put<std::int32_t>(f, block);
  put<std::uint64_t>(f, d.total);
  put<std::uint64_t>(f, static_cast<std::uint64_t>(d.blocks.size()));
  std::size_t off = 0;
  for (const std::uint32_t b : d.blocks) {
    const std::size_t len = block_len(d.total, b, block);
    put<std::uint32_t>(f, b);
    put<std::uint64_t>(f, fnv1a64(d.payload.data() + off,
                                  len * sizeof(double)));
    f.write(reinterpret_cast<const char*>(d.payload.data() + off),
            static_cast<std::streamsize>(len * sizeof(double)));
    off += len;
  }
  std::string image = std::move(f).str();
  const std::uint64_t digest = fnv1a64(image.data(), image.size());
  image.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  return image;
}

struct ParsedDelta {
  CkptImage header;  ///< dims + t + steps (no payload)
  CkptDelta delta;
  long gen = -1;
  long prev = -1;
  int block = 0;
};

ParsedDelta parse_delta(const std::string& image, const std::string& path,
                        const int* expect) {
  S3D_REQUIRE(image.size() >= 2 * sizeof(std::uint64_t),
              "truncated delta checkpoint: " + path);
  // Whole-file checksum first: any flip anywhere is a checksum mismatch,
  // never a confusing parse error on damaged lengths.
  const std::size_t payload = image.size() - sizeof(std::uint64_t);
  std::uint64_t stored = 0;
  std::memcpy(&stored, image.data() + payload, sizeof(stored));
  const std::uint64_t computed = fnv1a64(image.data(), payload);
  S3D_REQUIRE(stored == computed,
              "delta checksum mismatch (corrupted file): " + path +
                  ": stored=" + hex64(stored) +
                  " computed=" + hex64(computed));
  ByteReader r(image, path);
  S3D_REQUIRE(r.get<std::uint64_t>() == kDeltaMagic,
              "not a delta checkpoint: " + path);
  ParsedDelta p;
  p.header.nx = r.get<std::int32_t>();
  p.header.ny = r.get<std::int32_t>();
  p.header.nz = r.get<std::int32_t>();
  p.header.nv = r.get<std::int32_t>();
  if (expect)
    S3D_REQUIRE(p.header.nx == expect[0] && p.header.ny == expect[1] &&
                    p.header.nz == expect[2] && p.header.nv == expect[3],
                "restart grid/variable mismatch: " + path);
  p.header.t = r.get<double>();
  p.header.steps = r.get<std::int64_t>();
  p.gen = static_cast<long>(r.get<std::int64_t>());
  p.prev = static_cast<long>(r.get<std::int64_t>());
  p.block = r.get<std::int32_t>();
  S3D_REQUIRE(p.block >= 1, "corrupt delta block granule in " + path);
  p.delta.total = r.get<std::uint64_t>();
  const auto ndirty = r.get<std::uint64_t>();
  p.delta.blocks.reserve(static_cast<std::size_t>(ndirty));
  for (std::uint64_t i = 0; i < ndirty; ++i) {
    const auto b = r.get<std::uint32_t>();
    const auto bsum = r.get<std::uint64_t>();
    const std::size_t len = block_len(p.delta.total, b, p.block);
    S3D_REQUIRE(static_cast<std::uint64_t>(b) * p.block < p.delta.total,
                "delta block out of range in " + path);
    const std::size_t off = p.delta.payload.size();
    p.delta.payload.resize(off + len);
    r.raw(p.delta.payload.data() + off, len * sizeof(double));
    S3D_REQUIRE(fnv1a64(p.delta.payload.data() + off,
                        len * sizeof(double)) == bsum,
                "delta block checksum mismatch (corrupted file): " + path +
                    ": block " + std::to_string(b));
    p.delta.blocks.push_back(b);
  }
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// DeltaRing

DeltaRing::DeltaRing(int depth, const CkptOptions& opt)
    : depth_(depth), opt_(opt) {
  S3D_REQUIRE(depth >= 1, "snapshot ring depth must be >= 1");
  S3D_REQUIRE(opt_.block >= 1, "snapshot ring delta block must be >= 1");
}

void DeltaRing::push(CkptImage img) {
  if (!ring_.empty())
    S3D_REQUIRE(img.data.size() == head_.data.size(),
                "snapshot does not match the solver's state size");
  Entry e;
  e.t = img.t;
  e.steps = img.steps;
  if (ring_.empty() || !opt_.delta) {
    e.is_base = true;
    e.base = img.data;
  } else {
    e.is_base = false;
    e.delta = diff_image(head_.data, img.data, opt_.block);
  }
  ring_.push_back(std::move(e));
  head_ = std::move(img);
  if (static_cast<int>(ring_.size()) > depth_) {
    // Evict the oldest entry; fold its successor into the base first so
    // the front of the ring stays a full image.
    if (ring_.size() > 1 && !ring_[1].is_base) {
      apply_delta(ring_[0].base, ring_[1].delta, opt_.block);
      ring_[1].base = std::move(ring_[0].base);
      ring_[1].is_base = true;
      ring_[1].delta = CkptDelta{};
    }
    ring_.pop_front();
  }
}

const CkptImage& DeltaRing::newest() const {
  S3D_REQUIRE(!ring_.empty(), "snapshot ring is empty");
  return head_;
}

void DeltaRing::pop_newest() {
  S3D_REQUIRE(!ring_.empty(), "snapshot ring is empty");
  ring_.pop_back();
  if (!ring_.empty()) rebuild_head();
}

void DeltaRing::rebuild_head() {
  std::vector<double> data = ring_.front().base;
  for (std::size_t i = 1; i < ring_.size(); ++i) {
    if (ring_[i].is_base)
      data = ring_[i].base;
    else
      apply_delta(data, ring_[i].delta, opt_.block);
  }
  head_.t = ring_.back().t;
  head_.steps = ring_.back().steps;
  head_.data = std::move(data);
}

long DeltaRing::newest_step() const {
  return ring_.empty() ? -1 : static_cast<long>(ring_.back().steps);
}

std::size_t DeltaRing::bytes() const {
  std::size_t b = ring_.empty() ? 0 : head_.data.size() * sizeof(double);
  for (const auto& e : ring_)
    b += e.base.size() * sizeof(double) +
         e.delta.payload.size() * sizeof(double) +
         e.delta.blocks.size() * sizeof(std::uint32_t);
  return b;
}

// ---------------------------------------------------------------------------
// CkptStore

CkptStore::CkptStore(std::string dir, std::string stem, int keep_last,
                     CkptOptions opt)
    : dir_(std::move(dir)),
      stem_(std::move(stem)),
      keep_last_(keep_last),
      opt_(opt),
      owner_rank_(fault::current_rank()) {
  S3D_REQUIRE(keep_last_ >= 1, "RestartSeries: keep_last must be >= 1");
  S3D_REQUIRE(opt_.base_every >= 1 && opt_.block >= 1 &&
                  opt_.queue_depth >= 1 && opt_.persist_retries >= 0,
              "RestartSeries: malformed checkpoint options");
  std::lock_guard<std::mutex> lk(mu_);
  load_table();
}

CkptStore::~CkptStore() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  if (worker_.joinable()) worker_.join();  // drains the remaining queue
}

std::string CkptStore::path(long gen) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".g%06ld.rst", gen);
  return dir_ + "/" + stem_ + buf;
}

std::string CkptStore::manifest_path() const {
  return dir_ + "/" + stem_ + ".manifest";
}

std::optional<CkptGen> CkptStore::classify_file(long gen) const {
  std::ifstream f(path(gen), std::ios::binary);
  if (!f.good()) return std::nullopt;
  std::uint64_t magic = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!f.good()) return std::nullopt;
  CkptGen e;
  e.gen = gen;
  e.persisted = true;
  if (magic == kRestartMagic) return e;
  if (magic != kDeltaMagic) return std::nullopt;
  // Delta header peek: skip dims/t/steps/gen, read the prev link.
  f.seekg(static_cast<std::streamoff>(8 + 16 + 8 + 8 + 8));
  std::int64_t prev = -1;
  f.read(reinterpret_cast<char*>(&prev), sizeof(prev));
  if (!f.good()) return std::nullopt;
  e.is_base = false;
  e.prev = static_cast<long>(prev);
  const auto pit = table_.find(e.prev);
  e.chain = pit != table_.end() ? pit->second.chain + 1 : opt_.base_every;
  return e;
}

void CkptStore::load_table() {
  std::ifstream f(manifest_path());
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    long gen = -1;
    if (!(ss >> gen)) continue;
    char kind = 0;
    long prev = -1;
    int chain = 0, valid = 1;
    if (ss >> kind >> prev >> chain >> valid) {
      CkptGen e;
      e.gen = gen;
      e.is_base = kind != 'd';
      e.prev = prev;
      e.chain = chain;
      e.valid = valid != 0;
      e.persisted = true;
      table_[gen] = e;
    } else if (auto e = classify_file(gen)) {
      // PR-2 manifest (generation numbers only): classify by header peek.
      table_[gen] = *e;
    }
  }
  sync_scan_locked();
}

void CkptStore::sync_scan_locked() {
  // Directory scan as fallback: a lost manifest must not orphan good
  // generation files.
  std::error_code ec;
  const std::string prefix = stem_ + ".g";
  std::vector<long> found;
  for (const auto& e : stdfs::directory_iterator(dir_, ec)) {
    const std::string name = e.path().filename().string();
    if (name.size() != prefix.size() + 10 ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - 4, 4, ".rst") != 0)
      continue;
    const std::string digits = name.substr(prefix.size(), 6);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    found.push_back(std::stol(digits));
  }
  std::sort(found.begin(), found.end());  // classify parents before children
  for (const long g : found)
    if (!table_.count(g))
      if (auto e = classify_file(g)) table_[g] = *e;
}

void CkptStore::write_manifest_locked() const {
  std::ostringstream m;
  m << "# CkptStore manifest for '" << stem_ << "' (newest first)\n";
  m << "# gen kind(b=base,d=delta) prev chain valid\n";
  for (auto it = table_.rbegin(); it != table_.rend(); ++it) {
    const CkptGen& e = it->second;
    m << e.gen << ' ' << (e.is_base ? 'b' : 'd') << ' ' << e.prev << ' '
      << e.chain << ' ' << (e.valid ? 1 : 0) << "\n";
  }
  atomic_write_file(manifest_path(), m.str());
}

void CkptStore::invalidate_cascade_locked(long gen) const {
  auto it = table_.find(gen);
  if (it == table_.end()) return;
  if (it->second.valid) {
    it->second.valid = false;
    ++stats_.invalidated;
  }
  // One ascending sweep kills every later delta whose chain passes
  // through an invalid link (prev < gen always, so one pass suffices).
  for (auto jt = table_.upper_bound(gen); jt != table_.end(); ++jt) {
    CkptGen& e = jt->second;
    if (e.is_base || !e.valid) continue;
    const auto pit = table_.find(e.prev);
    if (pit == table_.end() || !pit->second.valid) {
      e.valid = false;
      ++stats_.invalidated;
    }
  }
}

long CkptStore::newest_valid_locked(long max_gen) const {
  for (auto it = std::make_reverse_iterator(table_.upper_bound(max_gen));
       it != table_.rend(); ++it)
    if (it->second.valid) return it->first;
  return -1;
}

bool CkptStore::chain_for_locked(long gen, std::vector<CkptGen>* chain,
                                 std::string* err) const {
  long cur = gen;
  for (int hop = 0; hop < 1 << 20; ++hop) {
    auto it = table_.find(cur);
    if (it == table_.end()) {
      if (auto e = classify_file(cur)) {
        it = table_.emplace(cur, *e).first;
      } else {
        if (err)
          *err = "cannot open restart file: " + path(cur) +
                 " (missing or unreadable)";
        return false;
      }
    }
    if (!it->second.valid) {
      if (err)
        *err = "generation " + std::to_string(cur) +
               " marked invalid in the generation table";
      return false;
    }
    chain->push_back(it->second);
    if (it->second.is_base) {
      std::reverse(chain->begin(), chain->end());  // base first
      return true;
    }
    cur = it->second.prev;
    if (cur < 0) break;
  }
  if (err)
    *err = "generation " + std::to_string(gen) +
           " has a broken delta chain (no base)";
  return false;
}

void CkptStore::append(const Solver& s, long gen) {
  CkptImage img = image_from_solver(s);
  const std::uint64_t logical =
      static_cast<std::uint64_t>(img.data.size()) * sizeof(double);

  bool base = true;
  long prev = -1;
  int chain = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Rewriting at or below an existing generation abandons that
    // timeline (recovery rewound the run); its entries are dead.
    table_.erase(table_.lower_bound(gen), table_.end());
    if (opt_.delta && !force_base_ && shadow_ && shadow_gen_ >= 0 &&
        shadow_gen_ < gen && shadow_->data.size() == img.data.size()) {
      const auto pit = table_.find(shadow_gen_);
      if (pit != table_.end() && pit->second.valid &&
          pit->second.chain + 1 < opt_.base_every) {
        base = false;
        prev = shadow_gen_;
        chain = pit->second.chain + 1;
      }
    }
  }

  std::string bytes;
  if (!base) {
    const CkptDelta d = diff_image(shadow_->data, img.data, opt_.block);
    bytes = serialize_delta(img, d, gen, prev, opt_.block);
    if (auto a = fault::probe("checkpoint.delta")) {
      fault::apply(a, "checkpoint.delta");  // Kind::fail throws pre-commit
      fault::corrupt_bytes(a, reinterpret_cast<std::uint8_t*>(bytes.data()),
                           bytes.size());
    }
  } else {
    bytes = serialize_base(img);
  }

  bool dropped = false;
  if (auto a = fault::probe("checkpoint.write")) {
    fault::apply(a, "checkpoint.write");  // Kind::fail throws before any I/O
    if (a.kind == fault::Kind::drop) {
      dropped = true;
    } else {
      // Kind::corrupt lands a full-length but bit-damaged image on disk —
      // exactly what the checksums and restore_latest must catch.
      fault::corrupt_bytes(a, reinterpret_cast<std::uint8_t*>(bytes.data()),
                           bytes.size());
    }
  }

  std::error_code ec;
  stdfs::create_directories(dir_, ec);

  {
    std::lock_guard<std::mutex> lk(mu_);
    CkptGen e;
    e.gen = gen;
    e.is_base = base;
    e.prev = prev;
    e.chain = chain;
    e.bytes = bytes.size();
    table_[gen] = e;
    shadow_ = std::move(img);
    shadow_gen_ = gen;
    if (base) {
      force_base_ = false;
      ++stats_.bases;
    } else {
      ++stats_.deltas;
    }
    stats_.logical_bytes += logical;
    stats_.written_bytes += bytes.size();
    if (owner_rank_ == 0) {
      trace::counter_add(base ? "ckpt.base_gens" : "ckpt.delta_gens", 1.0);
      trace::counter_add("ckpt.logical_bytes",
                         static_cast<double>(logical));
      trace::gauge_set("ckpt.delta_ratio", stats_.dedup_ratio());
    }
  }

  Task task;
  task.gen = gen;
  task.dropped = dropped;
  if (!dropped) task.image = std::move(bytes);
  if (opt_.write_behind)
    enqueue(std::move(task));
  else
    persist_one(std::move(task));
}

void CkptStore::enqueue(Task task) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!worker_.joinable())
      worker_ = std::thread(&CkptStore::worker_loop, this, owner_rank_);
    cv_space_.wait(lk, [&] {
      return static_cast<int>(queue_.size()) < opt_.queue_depth || stop_;
    });
    queue_.push_back(std::move(task));
    ++stats_.enqueued;
    stats_.queue_hwm =
        std::max(stats_.queue_hwm, static_cast<int>(queue_.size()));
    if (owner_rank_ == 0)
      trace::gauge_set("ckpt.queue_hwm",
                       static_cast<double>(stats_.queue_hwm));
  }
  cv_work_.notify_one();
}

void CkptStore::worker_loop(int owner_rank) {
  // The persister acts on the owning rank's behalf: fault call counters
  // and trace events must attribute to it, not to a phantom rank 0.
  fault::set_rank(owner_rank);
  trace::set_rank(owner_rank);
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop requested and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
      working_ = true;
    }
    cv_space_.notify_one();
    persist_one(std::move(task));
    {
      std::lock_guard<std::mutex> lk(mu_);
      working_ = false;
    }
    cv_idle_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    working_ = false;
  }
  cv_idle_.notify_all();
}

void CkptStore::persist_one(Task task) {
  std::exception_ptr failure;
  double ms = 0.0;
  if (!task.dropped) {
    const iosim::RetryPolicy retry{opt_.persist_retries,
                                   opt_.backoff_ms * 1e-3,
                                   opt_.backoff_cap_ms * 1e-3};
    const auto t0 = std::chrono::steady_clock::now();
    for (int attempt = 0;; ++attempt) {
      if (auto a = fault::probe("checkpoint.persist")) {
        if (a.kind == fault::Kind::fail) {
          if (attempt >= retry.retries) {
            try {
              fault::apply(a, "checkpoint.persist");  // throws InjectedFault
            } catch (...) {
              failure = std::current_exception();
            }
            break;
          }
          sleep_s(retry.delay(attempt));
          continue;
        }
        if (a.kind == fault::Kind::delay) {
          fault::apply(a, "checkpoint.persist");  // sleeps
        } else if (a.kind == fault::Kind::drop) {
          task.dropped = true;
        } else {
          // Kind::corrupt: the damage happens on the wire — the file
          // lands full-length but bit-flipped, for the checksums to find.
          fault::corrupt_bytes(
              a, reinterpret_cast<std::uint8_t*>(task.image.data()),
              task.image.size());
        }
      }
      if (task.dropped) break;
      try {
        atomic_write_file(path(task.gen), task.image);
        break;
      } catch (const Error&) {
        if (attempt >= retry.retries) {
          failure = std::current_exception();
          break;
        }
        sleep_s(retry.delay(attempt));
      }
    }
    ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count();
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.persist_ms_total += ms;
    const auto it = table_.find(task.gen);
    if (it != table_.end()) {
      if (!failure) {
        it->second.persisted = !task.dropped;
        ++stats_.persisted;
      } else {
        // Crash-consistency contract: an exhausted persist marks only
        // this generation (and deltas chained through it) invalid; the
        // previous generation stays restorable, and the next append
        // self-heals by forcing a fresh base.
        invalidate_cascade_locked(task.gen);
        ++stats_.persist_failures;
        force_base_ = true;
      }
    }
    write_manifest_locked();
    if (owner_rank_ == 0) {
      if (!failure) {
        trace::counter_add("ckpt.bytes_written",
                           static_cast<double>(task.image.size()));
        trace::counter_add("ckpt.persist_ms", ms);
      } else {
        trace::counter_add("ckpt.persist_failures", 1.0);
      }
    }
  }

  prune_fold();

  if (failure && !opt_.write_behind) std::rethrow_exception(failure);
}

void CkptStore::prune_fold() {
  std::vector<long> victims;
  long fold_gen = -1;
  std::vector<CkptGen> fold_chain;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (static_cast<long>(table_.size()) <= keep_last_) return;
    std::vector<long> gens;
    for (auto it = table_.rbegin(); it != table_.rend(); ++it)
      gens.push_back(it->first);
    const long oldest_kept = gens[static_cast<std::size_t>(keep_last_) - 1];
    for (std::size_t i = static_cast<std::size_t>(keep_last_);
         i < gens.size(); ++i)
      victims.push_back(gens[i]);
    const auto it = table_.find(oldest_kept);
    if (it != table_.end() && !it->second.is_base && it->second.valid) {
      // The oldest retained generation is a delta whose chain crosses
      // the victims: fold it into a base before their files vanish.
      std::string err;
      if (chain_for_locked(oldest_kept, &fold_chain, &err))
        fold_gen = oldest_kept;
      else
        invalidate_cascade_locked(oldest_kept);  // chain already broken
    }
  }

  if (fold_gen >= 0) {
    try {
      CkptImage img;
      for (std::size_t i = 0; i < fold_chain.size(); ++i) {
        const CkptGen& link = fold_chain[i];
        const std::string image =
            read_file_image(path(link.gen), "restart file");
        if (link.is_base) {
          img = parse_base(image, path(link.gen), nullptr);
        } else {
          const ParsedDelta d = parse_delta(image, path(link.gen), nullptr);
          apply_delta(img.data, d.delta, d.block);
          img.t = d.header.t;
          img.steps = d.header.steps;
        }
      }
      atomic_write_file(path(fold_gen), serialize_base(img));
      std::lock_guard<std::mutex> lk(mu_);
      auto it = table_.find(fold_gen);
      if (it != table_.end()) {
        it->second.is_base = true;
        it->second.prev = -1;
        it->second.chain = 0;
        it->second.bytes =
            img.data.size() * sizeof(double) + 48 + sizeof(std::uint64_t);
        ++stats_.folds;
        if (owner_rank_ == 0) trace::counter_add("ckpt.folds", 1.0);
        // Chain depths shrank for everything downstream of the new base.
        for (auto jt = table_.upper_bound(fold_gen); jt != table_.end();
             ++jt) {
          if (jt->second.is_base) continue;
          const auto pit = table_.find(jt->second.prev);
          if (pit != table_.end())
            jt->second.chain = pit->second.chain + 1;
        }
      }
    } catch (const Error&) {
      std::lock_guard<std::mutex> lk(mu_);
      invalidate_cascade_locked(fold_gen);
    }
  }

  std::error_code ec;
  for (const long g : victims) stdfs::remove(path(g), ec);
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const long g : victims) table_.erase(g);
    write_manifest_locked();
  }
}

void CkptStore::drain_locked(std::unique_lock<std::mutex>& lk) const {
  cv_idle_.wait(lk, [&] { return queue_.empty() && !working_; });
}

void CkptStore::drain() const {
  if (!opt_.write_behind) return;
  std::unique_lock<std::mutex> lk(mu_);
  drain_locked(lk);
}

std::vector<long> CkptStore::generations() const {
  drain();
  std::lock_guard<std::mutex> lk(mu_);
  const_cast<CkptStore*>(this)->sync_scan_locked();
  std::vector<long> gens;
  for (auto it = table_.rbegin(); it != table_.rend(); ++it)
    gens.push_back(it->first);
  return gens;
}

bool CkptStore::try_load(long gen, Solver& s, std::string* err) const {
  drain();
  std::vector<CkptGen> chain;
  {
    std::lock_guard<std::mutex> lk(mu_);
    std::string why;
    if (!chain_for_locked(gen, &chain, &why)) {
      // A broken chain makes this generation unrecoverable: record that
      // in the table so restore_latest never retries it.
      if (table_.count(gen)) invalidate_cascade_locked(gen);
      if (err) *err = why;
      return false;
    }
  }

  const int expect[4] = {s.layout().nx, s.layout().ny, s.layout().nz,
                         s.state().nv()};
  try {
    std::vector<std::string> images;
    images.reserve(chain.size());
    for (const CkptGen& link : chain)
      images.push_back(read_file_image(path(link.gen), "restart file"));
    if (auto a = fault::probe("restart.read")) {
      fault::apply(a, "restart.read");  // Kind::fail models a read error
      fault::corrupt_bytes(
          a, reinterpret_cast<std::uint8_t*>(images.back().data()),
          images.back().size());
    }
    CkptImage img;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const CkptGen& link = chain[i];
      if (link.is_base) {
        img = parse_base(images[i], path(link.gen), expect);
      } else {
        const ParsedDelta d = parse_delta(images[i], path(link.gen), expect);
        S3D_REQUIRE(d.gen == link.gen && d.prev == link.prev,
                    "delta chain link mismatch: " + path(link.gen));
        apply_delta(img.data, d.delta, d.block);
        img.t = d.header.t;
        img.steps = d.header.steps;
      }
    }
    commit_image(img, s);
    std::lock_guard<std::mutex> lk(mu_);
    shadow_ = std::move(img);
    shadow_gen_ = gen;
    return true;
  } catch (const Error& e) {
    std::lock_guard<std::mutex> lk(mu_);
    invalidate_cascade_locked(gen);
    if (err) *err = e.what();
    return false;
  }
}

long CkptStore::restore_latest(Solver& s, std::vector<std::string>* skipped,
                               long max_gen) const {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    const_cast<CkptStore*>(this)->sync_scan_locked();
  }
  for (;;) {
    long gen = -1;
    {
      std::lock_guard<std::mutex> lk(mu_);
      gen = newest_valid_locked(max_gen);
    }
    if (gen < 0) return -1;
    std::string err;
    if (try_load(gen, s, &err)) return gen;
    if (skipped)
      skipped->push_back("gen " + std::to_string(gen) + ": " + err);
    // try_load marked `gen` invalid; the walk continues strictly older.
  }
}

CkptStats CkptStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace s3d::solver
