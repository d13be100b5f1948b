// AppendLog: an append-only array stored in fixed-size chunks.
//
// Some stores keep every entry for the whole run: the path of every issued
// update version, ez-Segway's per-(flow, version) switch state. A
// std::vector holding them would copy every entry each time it doubles,
// carry up to half its capacity unused, and soon cross the allocator's mmap
// threshold, whose release raises the threshold and leaves the next bed's
// heap fragmented. An AppendLog allocates one chunk at a time and never
// moves an element, so references and indices stay valid for its life.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace p4u::sim {

template <typename T, std::size_t kChunk>
class AppendLog {
  static_assert(kChunk > 0, "chunk size must be positive");

 public:
  /// Appends a default-constructed element and returns its index.
  std::uint32_t append() {
    if (size_ == chunks_.size() * kChunk) {
      chunks_.push_back(std::make_unique<T[]>(kChunk));
    }
    return size_++;
  }

  [[nodiscard]] T& operator[](std::uint32_t i) {
    return chunks_[i / kChunk][i % kChunk];
  }
  [[nodiscard]] const T& operator[](std::uint32_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }

  /// Drops every element and frees the chunks.
  void clear() {
    chunks_.clear();
    size_ = 0;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::uint32_t size_ = 0;
};

}  // namespace p4u::sim
