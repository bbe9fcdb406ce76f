// Must NOT compile (tests/CMakeLists.txt builds it with
// -Werror=unused-result): Expected is a [[nodiscard]] class, so a
// call whose result is dropped is a hard error.  The root
// CMakeLists.txt adds the same flag to every build; this file proves
// [[nodiscard]] on Expected cannot erode unnoticed.
#include "common/expected.hh"

namespace
{

bear::Expected<int, int>
make()
{
    return 1;
}

} // namespace

int
main()
{
    make(); // discarded Expected — must fail to compile
    return 0;
}
