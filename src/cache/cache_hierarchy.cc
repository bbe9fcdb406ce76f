#include "cache/cache_hierarchy.hh"

namespace bear
{

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : l3_(config.l3)
{
}

HierarchyOutcome
CacheHierarchy::access(CoreId, LineAddr line, bool is_write)
{
    HierarchyOutcome outcome;
    outcome.onChipLatency = l3_.config().latency;
    outcome.llcMiss = !l3_.access(line, is_write).hit;
    return outcome;
}

std::optional<WritebackRequest>
CacheHierarchy::fillLlc(LineAddr line, bool is_write, bool dcp)
{
    const SramEviction ev = l3_.fill(line, is_write, dcp);
    if (!ev.valid || !ev.dirty)
        return std::nullopt;
    return WritebackRequest{ev.line, ev.dcp, 0};
}

void
CacheHierarchy::onDramCacheEviction(LineAddr line)
{
    l3_.clearPresence(line);
}

bool
CacheHierarchy::backInvalidate(LineAddr line)
{
    const SramEviction ev = l3_.invalidate(line);
    return ev.valid && ev.dirty;
}

} // namespace bear
