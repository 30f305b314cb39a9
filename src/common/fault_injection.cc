#include "common/fault_injection.hh"

#include <charconv>
#include <cstdlib>
#include <unistd.h>

#include "common/error.hh"

namespace unison {

namespace {

FaultPlan::Point
pointFromToken(const std::string &token)
{
    if (token == "write")
        return FaultPlan::Point::Write;
    if (token == "read")
        return FaultPlan::Point::Read;
    if (token == "sync")
        return FaultPlan::Point::Sync;
    throwUsage("fault plan: unknown point '", token,
               "' (write, read or sync)");
}

FaultPlan::Mode
modeFromToken(const std::string &token, FaultPlan::Point point)
{
    if (token == "fail")
        return FaultPlan::Mode::Fail;
    if (point == FaultPlan::Point::Sync)
        throwUsage("fault plan: unknown mode '", token,
                   "' for sync (fail)");
    if (token == "corrupt")
        return FaultPlan::Mode::Corrupt;
    if (point == FaultPlan::Point::Write) {
        if (token == "kill")
            return FaultPlan::Mode::Kill;
        if (token == "truncate")
            return FaultPlan::Mode::Truncate;
    }
    throwUsage("fault plan: unknown mode '", token, "' for ",
               point == FaultPlan::Point::Write ? "write" : "read",
               " (fail, corrupt",
               point == FaultPlan::Point::Write ? ", kill, truncate"
                                                : "",
               ")");
}

} // namespace

FaultPlan
parseFaultPlan(const std::string &spec)
{
    // <point>-<mode>@<path-substring>:<offset>
    const std::size_t dash = spec.find('-');
    const std::size_t at = spec.find('@');
    const std::size_t colon = spec.rfind(':');
    if (dash == std::string::npos || at == std::string::npos ||
        colon == std::string::npos || dash > at || at > colon ||
        colon + 1 >= spec.size())
        throwUsage("fault plan must look like "
                   "<point>-<mode>@<path-substring>:<offset>, got '",
                   spec, "'");

    FaultPlan plan;
    plan.point = pointFromToken(spec.substr(0, dash));
    plan.mode =
        modeFromToken(spec.substr(dash + 1, at - dash - 1), plan.point);
    plan.pathSubstr = spec.substr(at + 1, colon - at - 1);
    if (plan.pathSubstr.empty())
        throwUsage("fault plan: empty path substring in '", spec, "'");

    const char *begin = spec.data() + colon + 1;
    const char *end = spec.data() + spec.size();
    const auto r = std::from_chars(begin, end, plan.offset);
    if (r.ec != std::errc() || r.ptr != end)
        throwUsage("fault plan: bad byte offset in '", spec, "'");
    return plan;
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(const FaultPlan &plan)
{
    std::lock_guard<std::mutex> lock(mutex_);
    plan_ = plan;
    tripped_ = false;
    syncs_ = 0;
    envChecked_ = true; // an explicit plan overrides the environment
}

void
FaultInjector::disarm()
{
    arm(FaultPlan{});
}

void
FaultInjector::armFromEnv()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (envChecked_)
            return;
        envChecked_ = true;
    }
    const char *spec = std::getenv("UNISON_FAULT");
    if (spec == nullptr || *spec == '\0')
        return;
    const FaultPlan plan = parseFaultPlan(spec);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        plan_ = plan;
        tripped_ = false;
    }
    structuredWarn("fault-injection-armed", {{"plan", spec}});
}

FaultInjector::WriteDecision
FaultInjector::onWrite(const std::string &path, std::uint64_t begin,
                       std::size_t len)
{
    WriteDecision d{len};
    std::lock_guard<std::mutex> lock(mutex_);
    if (plan_.point != FaultPlan::Point::Write ||
        path.find(plan_.pathSubstr) == std::string::npos)
        return d;

    if (plan_.mode == FaultPlan::Mode::Corrupt) {
        if (begin <= plan_.offset && plan_.offset < begin + len)
            d.corruptAt = static_cast<std::size_t>(plan_.offset - begin);
        return d;
    }

    // fail / kill / truncate: the stream dies at plan_.offset.
    if (tripped_ || begin + len > plan_.offset) {
        d.persist = tripped_ ? 0
                             : static_cast<std::size_t>(
                                   plan_.offset > begin
                                       ? plan_.offset - begin
                                       : 0);
        tripped_ = true;
        switch (plan_.mode) {
          case FaultPlan::Mode::Fail:
            d.fail = true;
            break;
          case FaultPlan::Mode::Kill:
            d.kill = true;
            break;
          case FaultPlan::Mode::Truncate:
            break; // drop the tail, claim success
          default:
            break;
        }
    }
    return d;
}

FaultInjector::ReadDecision
FaultInjector::onRead(const std::string &path, std::uint64_t begin,
                      std::size_t len)
{
    ReadDecision d;
    std::lock_guard<std::mutex> lock(mutex_);
    if (plan_.point != FaultPlan::Point::Read ||
        path.find(plan_.pathSubstr) == std::string::npos)
        return d;

    if (plan_.mode == FaultPlan::Mode::Corrupt) {
        if (begin <= plan_.offset && plan_.offset < begin + len)
            d.corruptAt = static_cast<std::size_t>(plan_.offset - begin);
    } else if (plan_.mode == FaultPlan::Mode::Fail) {
        if (tripped_ || begin + len > plan_.offset) {
            tripped_ = true;
            d.fail = true;
        }
    }
    return d;
}

bool
FaultInjector::onSync(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (plan_.point != FaultPlan::Point::Sync ||
        path.find(plan_.pathSubstr) == std::string::npos)
        return false;
    return syncs_++ >= plan_.offset;
}

} // namespace unison
