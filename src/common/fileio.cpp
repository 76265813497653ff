#include "common/fileio.hpp"

#include <cstdio>

#include "common/logging.hpp"

namespace mimoarch {

bool
writeFileAtomic(const std::string &path, const std::string &contents)
{
    return writeFileAtomic(
        path, [&](const PieceSink &sink) { sink(contents); });
}

bool
writeFileAtomic(const std::string &path,
                const std::function<void(const PieceSink &)> &produce)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        warn("cannot open ", tmp, " for writing");
        return false;
    }
    bool written = true;
    try {
        produce([&](std::string_view piece) {
            if (written && !piece.empty())
                written = std::fwrite(piece.data(), 1, piece.size(), f) ==
                    piece.size();
        });
    } catch (...) {
        written = false; // e.g. bad_alloc while rendering a piece
    }
    const bool flushed = std::fflush(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (!written || !flushed || !closed) {
        warn("short or failed write to ", tmp);
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot rename ", tmp, " over ", path);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace mimoarch
