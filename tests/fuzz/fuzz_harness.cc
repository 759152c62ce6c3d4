#include "tests/fuzz/fuzz_harness.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "core/binary_io.h"

namespace fedda::fuzz {

std::string ScratchPath(const char* tag) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string base = tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp";
  return base + "/fedda_fuzz_" + std::to_string(::getpid()) + "_" + tag;
}

void WriteScratch(const std::string& path, const uint8_t* data, size_t size) {
  const core::Status written =
      core::WriteFile(path, std::vector<uint8_t>(data, data + size));
  if (!written.ok()) {
    std::fprintf(stderr, "fuzz harness: %s\n", written.ToString().c_str());
    std::abort();
  }
}

std::pair<std::vector<uint8_t>, std::vector<uint8_t>> SplitAt(
    const uint8_t* data, size_t size, uint8_t separator) {
  size_t cut = size;
  for (size_t i = 0; i < size; ++i) {
    if (data[i] == separator) {
      cut = i;
      break;
    }
  }
  std::vector<uint8_t> first(data, data + cut);
  std::vector<uint8_t> second;
  if (cut < size) second.assign(data + cut + 1, data + size);
  return {std::move(first), std::move(second)};
}

}  // namespace fedda::fuzz

#ifdef FEDDA_FUZZ_BUILD

// libFuzzer build: the engine provides main() and calls this per input.
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FeddaFuzzOne(data, size);
  return 0;
}

#else  // !FEDDA_FUZZ_BUILD — deterministic corpus-replay driver.

#include <algorithm>
#include <filesystem>
#include <vector>

namespace {

/// Replays one corpus file through the target. A crash aborts the whole
/// driver (that is the point: the ctest target goes red), so reaching the
/// next line means the entry passed.
bool ReplayFile(const std::filesystem::path& path) {
  std::vector<uint8_t> bytes;
  const fedda::core::Status read = fedda::core::ReadFile(path, &bytes);
  if (!read.ok()) {
    std::fprintf(stderr, "replay: %s\n", read.ToString().c_str());
    return false;
  }
  FeddaFuzzOne(bytes.data(), bytes.size());
  return true;
}

}  // namespace

/// Usage: <driver> [corpus-file-or-dir ...]. Directories are walked
/// recursively in sorted order (deterministic across filesystems). Missing
/// or empty corpora are not an error — a fresh target starts with none.
int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  size_t replayed = 0;
  bool io_error = false;
  for (int i = 1; i < argc; ++i) {
    std::error_code ec;
    const fs::path root(argv[i]);
    if (fs::is_directory(root, ec)) {
      std::vector<fs::path> entries;
      for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
        if (entry.is_regular_file(ec)) entries.push_back(entry.path());
      }
      std::sort(entries.begin(), entries.end());
      for (const auto& path : entries) {
        if (ReplayFile(path)) ++replayed;
        else io_error = true;
      }
    } else if (fs::is_regular_file(root, ec)) {
      if (ReplayFile(root)) ++replayed;
      else io_error = true;
    } else {
      std::fprintf(stderr, "replay: no corpus at %s (fresh target?)\n",
                   argv[i]);
    }
  }
  std::printf("fuzz_corpus_replay[%s]: %zu corpus entries, no crashes\n",
              FeddaFuzzTargetName(), replayed);
  return io_error ? 1 : 0;
}

#endif  // FEDDA_FUZZ_BUILD
