#include "common/logging.hpp"

#include <cstdio>
#include <cstdlib>

namespace mimoarch::detail {

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
panicImpl(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace mimoarch::detail
