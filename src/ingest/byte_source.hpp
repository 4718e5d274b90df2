// Byte sources the ingest front-end pulls from.
//
// The front-end is pull-based: on a pump tick it reads up to a
// per-stream byte budget from a stream's source, so a slow consumer
// (full frame queue under the `block` policy) simply stops pulling and
// the bytes stay where they are — in the file, or in the pipe where the
// producer sees the pipe fill up and its writes shorten. That is the
// whole backpressure story: no source-side buffering policy to tune.
//
// Readiness: a source that knows when bytes arrive can say so through
// ByteSource::watch(). The front-end then reads it only on ticks after
// it reported "bytes arrived" or "closed" (plus the sticky cases in
// DESIGN.md §15), so an idle stream costs nothing per tick. Sources
// that cannot report are read on every tick.
//
//   MemoryByteSource  - replays a byte vector (tests, fault sweeps).
//   FileReplaySource  - streams a .brwf file from disk (br_ingest replay).
//   BytePipe          - in-process socket-like stream: any producer
//                       thread write()s, the front-end reads the other
//                       end. Bounded; write() accepts a prefix when the
//                       pipe is nearly full (socket short-write
//                       semantics) and 0 bytes when full. Reports
//                       readiness.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace blinkradar::ingest {

/// Where readiness-reporting sources post "bytes arrived" / "closed".
/// Thread-safe: producers notify from any thread, the front-end takes
/// the posted tokens once per tick.
class ReadySet {
public:
    void notify(std::uint64_t token);
    /// Swap the posted tokens into `out` (cleared first; unordered, may
    /// repeat a token).
    void take(std::vector<std::uint64_t>& out);

private:
    std::mutex mutex_;
    std::vector<std::uint64_t> posted_;
};

/// Pull interface the front-end drives. read() returning 0 means
/// "nothing available right now" — only exhausted() distinguishes a
/// stalled source from a finished one.
class ByteSource {
public:
    virtual ~ByteSource() = default;

    /// Pull up to `max` bytes into `out`; returns the count delivered.
    virtual std::size_t read(std::uint8_t* out, std::size_t max) = 0;

    /// True when no byte will ever come again (EOF / closed pipe with an
    /// empty buffer). A false return with read() == 0 is a stall.
    virtual bool exhausted() const = 0;

    /// Watchdog hook: the front-end calls this when the stall watchdog
    /// fires and the backoff expires. Sources that can recover (a replay
    /// source re-opening its file, a transport re-dialling) do so here;
    /// the default is a no-op.
    virtual void reconnect() {}

    /// Readiness hook. A source that supports it posts `token` to
    /// `ready` whenever bytes arrive or it closes, until it is
    /// destroyed, and returns true; `ready` must outlive the source.
    /// After a read() that returned fewer bytes than asked, nothing new
    /// is readable until the next post. The default returns false: not
    /// supported, the source is read on every tick.
    virtual bool watch(ReadySet& ready, std::uint64_t token) {
        (void)ready;
        (void)token;
        return false;
    }
};

/// Replays an in-memory byte vector, optionally capped to `max_per_read`
/// bytes per call to emulate a trickling transport.
class MemoryByteSource : public ByteSource {
public:
    explicit MemoryByteSource(std::vector<std::uint8_t> bytes,
                              std::size_t max_per_read = SIZE_MAX);

    std::size_t read(std::uint8_t* out, std::size_t max) override;
    bool exhausted() const override { return offset_ >= bytes_.size(); }

private:
    std::vector<std::uint8_t> bytes_;
    std::size_t offset_ = 0;
    std::size_t max_per_read_;
};

/// Streams a file from disk in read()-sized slices. reconnect() reopens
/// the file and resumes from the last delivered offset (a replay of the
/// watchdog's recover-in-place semantics).
class FileReplaySource : public ByteSource {
public:
    /// Throws std::runtime_error when the file cannot be opened.
    explicit FileReplaySource(std::string path);
    ~FileReplaySource() override;

    std::size_t read(std::uint8_t* out, std::size_t max) override;
    bool exhausted() const override;
    void reconnect() override;

private:
    std::string path_;
    std::FILE* file_ = nullptr;
    std::size_t offset_ = 0;
    bool eof_ = false;
};

/// Bounded in-process byte pipe: the socket-like stream for producers
/// living in the same process (simulator threads, tests, the TSan
/// drill). Thread-safe; any number of writers, one reader (the
/// front-end). Reader-side pressure surfaces to writers as short or
/// zero-length writes. The bytes live in a contiguous ring that grows
/// by doubling up to the capacity, so a read or write is at most two
/// memcpys.
class BytePipe {
public:
    explicit BytePipe(std::size_t capacity_bytes = 1u << 20);

    /// Append up to capacity; returns the bytes accepted (0 when full —
    /// the producer's cue to back off or drop at its own layer).
    std::size_t write(std::span<const std::uint8_t> bytes);

    /// Producer is done; the reader sees EOF once the buffer drains.
    void close();

    std::size_t buffered() const;
    bool closed() const;

    /// The reader end (a ByteSource view sharing this pipe's buffer).
    /// The pipe must outlive the source.
    std::unique_ptr<ByteSource> make_source();

private:
    class Source;

    /// Copy up to `max` bytes out of the ring; caller holds mutex_.
    std::size_t take_locked(std::uint8_t* out, std::size_t max);
    /// Post to the watcher unless already posted since the last read;
    /// caller holds mutex_ (lock order: pipe, then ReadySet; the reader
    /// never holds both).
    void notify_locked();

    mutable std::mutex mutex_;
    std::vector<std::uint8_t> ring_;  ///< size() is the ring's length
    std::size_t head_ = 0;            ///< oldest buffered byte
    std::size_t size_ = 0;            ///< bytes buffered
    std::size_t capacity_;
    bool closed_ = false;
    ReadySet* ready_ = nullptr;  ///< the reader's watcher, if any
    std::uint64_t token_ = 0;
    bool posted_ = false;  ///< posted since the last read
};

}  // namespace blinkradar::ingest
