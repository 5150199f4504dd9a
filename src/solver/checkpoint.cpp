#include "solver/checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "resilience/fault.hpp"
#include "solver/ckpt_store.hpp"

namespace s3d::solver {

namespace {

constexpr std::uint64_t kAnalysisMagic = 0x533344414e4cull;  // "S3DANL"

/// Bounds-checked cursor over an in-memory file image; every read that
/// would run past the end throws a typed error naming the file.
class ByteReader {
 public:
  ByteReader(const std::string& image, const std::string& path)
      : data_(image), path_(path) {}

  template <typename T>
  T get() {
    require(sizeof(T), "value");
    T v{};
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string get_str() {
    const auto n = get<std::uint32_t>();
    require(n, "string");
    std::string s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  std::vector<double> get_vec() {
    const auto n = get<std::uint64_t>();
    S3D_REQUIRE(n <= remaining() / sizeof(double),
                "corrupt array length in " + path_);
    std::vector<double> v(n);
    std::memcpy(v.data(), data_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return v;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t pos() const { return pos_; }

 private:
  void require(std::size_t n, const char* what) {
    S3D_REQUIRE(n <= remaining(),
                std::string("truncated ") + what + " in " + path_);
  }
  const std::string& data_;
  std::string path_;
  std::size_t pos_ = 0;
};

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  S3D_REQUIRE(is.good(), "truncated file");
  return v;
}
void put_str(std::ostream& os, const std::string& s) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}
void put_vec(std::ostream& os, const std::vector<double>& v) {
  put<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(double)));
}

}  // namespace

void write_restart(const std::string& path, const Solver& s) {
  // Serialization and the fault-site semantics live in the checkpoint
  // store's codec (ckpt_store.cpp); a standalone restart file is exactly
  // a base generation.
  std::string image = serialize_base(image_from_solver(s));
  if (auto a = fault::probe("checkpoint.write")) {
    fault::apply(a, "checkpoint.write");  // Kind::fail throws before any I/O
    if (a.kind == fault::Kind::drop) return;
    // Kind::corrupt lands a full-length but bit-damaged image on disk —
    // exactly what read_restart's checksum and RestartSeries::read_latest
    // must catch.
    fault::corrupt_bytes(a, reinterpret_cast<std::uint8_t*>(image.data()),
                         image.size());
  }
  atomic_write_file(path, image);
}

void read_restart(const std::string& path, Solver& s) {
  std::string image = read_file_image(path, "restart file");
  if (auto a = fault::probe("restart.read")) {
    fault::apply(a, "restart.read");  // Kind::fail models a read error
    fault::corrupt_bytes(a, reinterpret_cast<std::uint8_t*>(image.data()),
                         image.size());
  }
  const int expect[4] = {s.layout().nx, s.layout().ny, s.layout().nz,
                         s.state().nv()};
  // The solver is only touched after parse_base has verified the trailing
  // checksum, so a corrupted file cannot half-load.
  commit_image(parse_base(image, path, expect), s);
}

double restart_time(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  S3D_REQUIRE(f.good(),
              "cannot open restart file: " + path + " (missing or unreadable)");
  S3D_REQUIRE(get<std::uint64_t>(f) == kRestartMagic,
              "not a restart file: " + path);
  for (int i = 0; i < 4; ++i) get<std::int32_t>(f);
  return get<double>(f);
}

RestartSeries::RestartSeries(std::string dir, std::string stem, int keep_last,
                             CkptOptions opt)
    : store_(std::make_unique<CkptStore>(std::move(dir), std::move(stem),
                                         keep_last, opt)) {}

RestartSeries::~RestartSeries() = default;

const std::string& RestartSeries::dir() const { return store_->dir(); }
const std::string& RestartSeries::stem() const { return store_->stem(); }
int RestartSeries::keep_last() const { return store_->keep_last(); }

std::string RestartSeries::path(long gen) const { return store_->path(gen); }

std::string RestartSeries::manifest_path() const {
  return store_->manifest_path();
}

std::vector<long> RestartSeries::generations() const {
  return store_->generations();
}

void RestartSeries::write(const Solver& s, long gen) {
  store_->append(s, gen);
}

bool RestartSeries::try_load(long gen, Solver& s, std::string* err) const {
  return store_->try_load(gen, s, err);
}

long RestartSeries::read_latest(Solver& s, std::vector<std::string>* skipped,
                                long max_gen) const {
  return store_->restore_latest(s, skipped, max_gen);
}

void RestartSeries::drain() const { store_->drain(); }

CkptStats RestartSeries::stats() const { return store_->stats(); }

void AnalysisFile::add_profile(const std::string& name,
                               std::vector<double> x,
                               std::vector<double> y) {
  S3D_REQUIRE(x.size() == y.size(), "profile x/y size mismatch: " + name);
  if (!profiles_.count(name)) p_names_.push_back(name);
  profiles_[name] = {std::move(x), std::move(y)};
}

void AnalysisFile::add_slice(const std::string& name, int nx, int ny,
                             std::vector<double> data) {
  S3D_REQUIRE(static_cast<std::size_t>(nx) * ny == data.size(),
              "slice size mismatch: " + name);
  if (!slices_.count(name)) s_names_.push_back(name);
  slices_[name] = {nx, ny, std::move(data)};
}

const std::pair<std::vector<double>, std::vector<double>>&
AnalysisFile::profile(const std::string& name) const {
  auto it = profiles_.find(name);
  S3D_REQUIRE(it != profiles_.end(), "no such profile: " + name);
  return it->second;
}

std::tuple<int, int, const std::vector<double>*> AnalysisFile::slice(
    const std::string& name) const {
  auto it = slices_.find(name);
  S3D_REQUIRE(it != slices_.end(), "no such slice: " + name);
  return {std::get<0>(it->second), std::get<1>(it->second),
          &std::get<2>(it->second)};
}

void AnalysisFile::write(const std::string& path) const {
  std::ostringstream f(std::ios::binary);
  put(f, kAnalysisMagic);
  put<std::uint32_t>(f, static_cast<std::uint32_t>(p_names_.size()));
  for (const auto& n : p_names_) {
    put_str(f, n);
    put_vec(f, profiles_.at(n).first);
    put_vec(f, profiles_.at(n).second);
  }
  put<std::uint32_t>(f, static_cast<std::uint32_t>(s_names_.size()));
  for (const auto& n : s_names_) {
    const auto& [nx, ny, data] = slices_.at(n);
    put_str(f, n);
    put<std::int32_t>(f, nx);
    put<std::int32_t>(f, ny);
    put_vec(f, data);
  }
  // Trailing integrity checksum over the whole payload, restart-style:
  // read() rejects bit flips instead of returning silently wrong plots.
  std::string image = std::move(f).str();
  Fnv1a64 hash;
  hash.update(image.data(), image.size());
  std::uint64_t digest = hash.digest();
  image.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  atomic_write_file(path, image);
}

AnalysisFile AnalysisFile::read(const std::string& path) {
  const std::string image = read_file_image(path, "analysis file");
  S3D_REQUIRE(image.size() >= sizeof(std::uint64_t) * 2,
              "truncated analysis file: " + path);
  const std::size_t payload = image.size() - sizeof(std::uint64_t);
  std::uint64_t stored = 0;
  std::memcpy(&stored, image.data() + payload, sizeof(stored));
  Fnv1a64 hash;
  hash.update(image.data(), payload);
  S3D_REQUIRE(stored == hash.digest(),
              "analysis file checksum mismatch (corrupted file): " + path +
                  ": stored=" + hex64(stored) +
                  " computed=" + hex64(hash.digest()));
  ByteReader r(image, path);
  S3D_REQUIRE(r.get<std::uint64_t>() == kAnalysisMagic,
              "not an analysis file: " + path);
  AnalysisFile out;
  const auto np = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < np; ++i) {
    const std::string name = r.get_str();
    auto x = r.get_vec();
    auto y = r.get_vec();
    out.add_profile(name, std::move(x), std::move(y));
  }
  const auto ns = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < ns; ++i) {
    const std::string name = r.get_str();
    const int nx = r.get<std::int32_t>();
    const int ny = r.get<std::int32_t>();
    out.add_slice(name, nx, ny, r.get_vec());
  }
  return out;
}

std::vector<std::string> AnalysisFile::export_xy(
    const std::string& stem) const {
  std::vector<std::string> written;
  for (const auto& n : p_names_) {
    const auto& [x, y] = profiles_.at(n);
    const std::string path = stem + "_" + n + ".xy";
    std::ofstream f(path);
    for (std::size_t i = 0; i < x.size(); ++i)
      f << x[i] << ' ' << y[i] << '\n';
    written.push_back(path);
  }
  return written;
}

void write_minmax(
    const std::string& path,
    const std::map<std::string, std::pair<double, double>>& mm) {
  std::ofstream f(path);
  S3D_REQUIRE(f.good(), "cannot open " + path);
  for (const auto& [var, v] : mm) f << var << ' ' << v.first << ' '
                                    << v.second << '\n';
}

std::map<std::string, std::pair<double, double>> collect_minmax(Solver& s) {
  const auto& prim = s.primitives();
  const Layout& l = s.layout();
  std::map<std::string, std::pair<double, double>> mm;
  auto scan = [&](const std::string& name, const GField& f) {
    double lo = 1e300, hi = -1e300;
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i) {
          lo = std::min(lo, f(i, j, k));
          hi = std::max(hi, f(i, j, k));
        }
    mm[name] = {lo, hi};
  };
  scan("T", prim.T);
  scan("p", prim.p);
  scan("u", prim.u);
  scan("v", prim.v);
  const auto& mech = s.rhs().mech();
  for (const char* sp : {"OH", "HO2", "CO", "CH4", "H2"}) {
    const int idx = mech.find(sp);
    if (idx >= 0) scan(std::string("Y_") + sp, prim.Y[idx]);
  }
  return mm;
}

}  // namespace s3d::solver
