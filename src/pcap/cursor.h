// Zero-copy pcap record cursor with two input backends: the project's one
// pcap reader. It hands out spans into a window of the file instead of a
// heap copy per record:
//
//   kStream — refills one reusable buffer with large sequential reads:
//             no per-record allocation, O(buffer) memory regardless of
//             capture size. Works on anything std::ifstream can read.
//   kMmap   — maps the whole file read-only and walks the mapping: no
//             read syscalls, no copies at all; the kernel pages data in
//             as the cursor advances (madvise SEQUENTIAL). Views stay
//             valid until the cursor is destroyed.
//   kAuto   — kMmap when the platform and file support it, else kStream.
//
// Both backends run the *same* validation code over the same windowed
// representation — only the refill step differs — so a damaged capture
// stops at the same byte offset with the same ParseException reason no
// matter the backend (the property ingest_corpus_test's mmap/stream
// differential pins down). That error contract (offset and reason for
// every failure mode) is pinned by tests/goldens/pcap_errors.txt.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/time.h"

namespace ccsig::pcap {

/// One record viewed in place. `data` points into the cursor's window and
/// is invalidated by the next call to next() in kStream mode; in kMmap
/// mode it stays valid for the cursor's lifetime.
struct RecordView {
  sim::Time timestamp = 0;
  std::uint32_t orig_len = 0;
  std::span<const std::uint8_t> data;
};

enum class CursorMode {
  kStream,  // buffered sequential reads (the PR 5 path)
  kMmap,    // map the file; throws ParseException if mapping fails
  kAuto,    // kMmap when possible, silently falling back to kStream
};

class PcapCursor {
 public:
  /// Opens and validates the file header. Throws runtime::ParseException
  /// (file, byte offset, reason) when the file is missing or the header is
  /// truncated or has a bad magic.
  ///
  /// `tail` opts into tail-past-EOF reading for a capture that is still
  /// being written (ccsigd's growing-file sources): a record whose final
  /// bytes are not on disk yet — or a file header still shorter than 24
  /// bytes — is an *incomplete tail*, not corruption. next() then returns
  /// nullopt without consuming anything and a later call retries the read,
  /// resuming exactly where the partial record starts once the writer has
  /// appended the rest. Genuine corruption (bad magic, absurd incl_len)
  /// still throws. Tail mode always uses the buffered kStream backend
  /// (a fixed-size mapping cannot see appended bytes).
  explicit PcapCursor(const std::string& path,
                      CursorMode mode = CursorMode::kStream,
                      bool tail = false);
  PcapCursor(const PcapCursor&) = delete;
  PcapCursor& operator=(const PcapCursor&) = delete;
  ~PcapCursor();

  /// Next record, or nullopt at clean end of file — or, in tail mode, at
  /// an incomplete tail (see incomplete_tail() to distinguish). The
  /// returned view is valid until the next call (kStream) or until
  /// destruction (kMmap).
  std::optional<RecordView> next();

  bool tail() const { return tail_; }

  /// Tail mode only: true when the last next() stopped inside a partial
  /// record (or the still-growing file header) rather than at a clean
  /// record boundary. Either way the stream may grow; retry next() later.
  bool incomplete_tail() const { return incomplete_tail_; }

  /// Tail mode only: false until the 24-byte pcap file header has been
  /// fully written and validated.
  bool header_ready() const { return header_ready_; }

  std::uint32_t snaplen() const { return snaplen_; }
  std::uint32_t linktype() const { return linktype_; }

  /// The backend actually in use (kAuto resolves at construction).
  CursorMode mode() const { return mmap_base_ ? CursorMode::kMmap
                                              : CursorMode::kStream; }

  /// Byte offset of the next unread position (for error reporting).
  std::uint64_t offset() const { return offset_; }

  // -- Fused-reader interface (kMmap only) ---------------------------------
  // BatchedIngest's fast path walks the mapping directly and parses record
  // headers inline, consuming clean records without the per-record call
  // into next(). Anything that is not a provably clean, complete record is
  // NOT consumed this way: the fused reader leaves the cursor position
  // untouched and calls next(), so every validation failure is produced by
  // the one canonical code path (identical offsets and reasons).

  /// Remaining unconsumed bytes of the mapping, or an empty span when the
  /// cursor is not in kMmap mode.
  std::span<const std::uint8_t> mapped_rest() const {
    if (!mmap_base_) return {};
    return {mmap_base_ + pos_, end_ - pos_};
  }

  /// Consumes `n` bytes previously obtained via mapped_rest(). Only valid
  /// for whole clean records the fused reader has fully validated.
  void consume_mapped(std::size_t n) {
    pos_ += n;
    offset_ += n;
  }

 private:
  [[noreturn]] void fail(std::string reason) const;

  /// Parses the 24-byte file header once enough bytes exist. Returns false
  /// (tail mode only) when the header is still incomplete; throws on a bad
  /// magic or, in non-tail mode, on truncation.
  bool parse_file_header();

  /// Tail mode: clears the eof/failbit state left by a short read so the
  /// next ensure() call re-attempts reads on the (possibly grown) file.
  void retry_reads();

  /// Ensures at least `need` contiguous unconsumed bytes are windowed, or
  /// as many as the file still has. Returns the available byte count. In
  /// kMmap mode the window is the whole file and this is a subtraction.
  std::size_t ensure(std::size_t need);

  /// Tries to map the file; returns false (leaving the cursor in kStream
  /// state) when the platform or the file does not support it.
  bool try_mmap();

  const std::uint8_t* window() const {
    return mmap_base_ ? mmap_base_ : buf_.data();
  }

  std::string path_;
  std::ifstream in_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;   // first unconsumed byte in the window
  std::size_t end_ = 0;   // one past the last valid byte in the window
  bool eof_ = false;      // underlying file exhausted
  const std::uint8_t* mmap_base_ = nullptr;  // non-null in kMmap mode
  std::size_t mmap_len_ = 0;
  std::uint32_t snaplen_ = 0;
  std::uint32_t linktype_ = 0;
  std::uint64_t offset_ = 0;
  bool tail_ = false;
  bool incomplete_tail_ = false;
  bool header_ready_ = false;
};

}  // namespace ccsig::pcap
