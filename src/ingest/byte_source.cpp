#include "ingest/byte_source.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace blinkradar::ingest {

// ------------------------------------------------------- MemoryByteSource

MemoryByteSource::MemoryByteSource(std::vector<std::uint8_t> bytes,
                                   std::size_t max_per_read)
    : bytes_(std::move(bytes)), max_per_read_(max_per_read) {}

std::size_t MemoryByteSource::read(std::uint8_t* out, std::size_t max) {
    const std::size_t n = std::min({max, max_per_read_,
                                    bytes_.size() - offset_});
    std::copy_n(bytes_.data() + offset_, n, out);
    offset_ += n;
    return n;
}

// ------------------------------------------------------- FileReplaySource

FileReplaySource::FileReplaySource(std::string path)
    : path_(std::move(path)) {
    file_ = std::fopen(path_.c_str(), "rb");
    if (file_ == nullptr)
        throw std::runtime_error("FileReplaySource: cannot open " + path_);
}

FileReplaySource::~FileReplaySource() {
    if (file_ != nullptr) std::fclose(file_);
}

std::size_t FileReplaySource::read(std::uint8_t* out, std::size_t max) {
    if (file_ == nullptr || eof_) return 0;
    const std::size_t n = std::fread(out, 1, max, file_);
    offset_ += n;
    if (n < max && std::feof(file_)) eof_ = true;
    return n;
}

bool FileReplaySource::exhausted() const { return eof_; }

void FileReplaySource::reconnect() {
    // Re-open and seek back to the last byte actually delivered — the
    // decoder's resynchronisation handles anything the transport mangled,
    // so the source only has to avoid silently skipping bytes.
    if (file_ != nullptr) std::fclose(file_);
    eof_ = false;
    file_ = std::fopen(path_.c_str(), "rb");
    if (file_ == nullptr) return;  // still gone; next watchdog retries
    if (std::fseek(file_, static_cast<long>(offset_), SEEK_SET) != 0) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

// --------------------------------------------------------------- ReadySet

void ReadySet::notify(std::uint64_t token) {
    const std::lock_guard<std::mutex> lock(mutex_);
    posted_.push_back(token);
}

void ReadySet::take(std::vector<std::uint64_t>& out) {
    out.clear();
    const std::lock_guard<std::mutex> lock(mutex_);
    out.swap(posted_);
}

// --------------------------------------------------------------- BytePipe

class BytePipe::Source : public ByteSource {
public:
    explicit Source(BytePipe* pipe) : pipe_(pipe) {}

    ~Source() override {
        // Unhook under the pipe lock: once this returns, no writer can
        // still be posting to the watcher.
        const std::lock_guard<std::mutex> lock(pipe_->mutex_);
        pipe_->ready_ = nullptr;
    }

    std::size_t read(std::uint8_t* out, std::size_t max) override {
        const std::lock_guard<std::mutex> lock(pipe_->mutex_);
        pipe_->posted_ = false;
        return pipe_->take_locked(out, max);
    }

    bool exhausted() const override {
        const std::lock_guard<std::mutex> lock(pipe_->mutex_);
        return pipe_->closed_ && pipe_->size_ == 0;
    }

    bool watch(ReadySet& ready, std::uint64_t token) override {
        const std::lock_guard<std::mutex> lock(pipe_->mutex_);
        pipe_->ready_ = &ready;
        pipe_->token_ = token;
        pipe_->posted_ = false;
        return true;
    }

private:
    BytePipe* pipe_;
};

BytePipe::BytePipe(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {}

std::size_t BytePipe::take_locked(std::uint8_t* out, std::size_t max) {
    const std::size_t n = std::min(max, size_);
    if (n == 0) return 0;
    const std::size_t first = std::min(n, ring_.size() - head_);
    std::memcpy(out, ring_.data() + head_, first);
    std::memcpy(out + first, ring_.data(), n - first);
    head_ = (head_ + n) % ring_.size();
    size_ -= n;
    return n;
}

void BytePipe::notify_locked() {
    if (ready_ == nullptr || posted_) return;
    posted_ = true;
    ready_->notify(token_);
}

std::size_t BytePipe::write(std::span<const std::uint8_t> bytes) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return 0;
    const std::size_t n = std::min(capacity_ - size_, bytes.size());
    if (n == 0) return 0;
    if (size_ + n > ring_.size()) {
        // Grow by doubling (capped at the capacity), unwrapping the
        // buffered bytes to the front of the new ring.
        std::vector<std::uint8_t> grown(std::min(
            capacity_, std::max({size_ + n, 2 * ring_.size(),
                                 std::size_t{4096}})));
        const std::size_t buffered = size_;
        take_locked(grown.data(), buffered);
        size_ = buffered;
        ring_.swap(grown);
        head_ = 0;
    }
    const std::size_t tail = (head_ + size_) % ring_.size();
    const std::size_t first = std::min(n, ring_.size() - tail);
    std::memcpy(ring_.data() + tail, bytes.data(), first);
    std::memcpy(ring_.data(), bytes.data() + first, n - first);
    size_ += n;
    notify_locked();
    return n;
}

void BytePipe::close() {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    notify_locked();
}

std::size_t BytePipe::buffered() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return size_;
}

bool BytePipe::closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

std::unique_ptr<ByteSource> BytePipe::make_source() {
    return std::make_unique<Source>(this);
}

}  // namespace blinkradar::ingest
