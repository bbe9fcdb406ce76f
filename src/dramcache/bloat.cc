#include "dramcache/bloat.hh"

#include "common/log.hh"

namespace bear
{

const char *
bloatCategoryName(BloatCategory c)
{
    switch (c) {
      case BloatCategory::HitProbe:
        return "Hit";
      case BloatCategory::MissProbe:
        return "MissProbe";
      case BloatCategory::MissFill:
        return "MissFill";
      case BloatCategory::WritebackProbe:
        return "WbProbe";
      case BloatCategory::WritebackUpdate:
        return "WbUpdate";
      case BloatCategory::WritebackFill:
        return "WbFill";
      case BloatCategory::DirtyEviction:
        return "DirtyEvict";
      case BloatCategory::NumCategories:
        break;
    }
    bear_panic("bad bloat category");
}

Bytes
BloatTracker::totalBytes() const
{
    Bytes total{0};
    for (auto b : bytes_)
        total += b;
    return total;
}

double
BloatTracker::bloatFactor() const
{
    if (useful_bytes_ == Bytes{0})
        return 0.0;
    return totalBytes().toDouble() / useful_bytes_.toDouble();
}

double
BloatTracker::categoryFactor(BloatCategory category) const
{
    if (useful_bytes_ == Bytes{0})
        return 0.0;
    return bytes(category).toDouble() / useful_bytes_.toDouble();
}

void
BloatTracker::reset()
{
    bytes_.fill(Bytes{0});
    useful_bytes_ = Bytes{0};
}

} // namespace bear
