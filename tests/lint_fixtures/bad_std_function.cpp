// Fixture: std::function in a simulator source file (src/<module>/) must
// be flagged; the lint test lints it under a src/ path.
#include <functional>

struct Pump {
  std::function<void(bool)> done;  // line 6: std-function
};

void Each(const std::function<void(int)>& fn);  // line 9: std-function
// A std::function named in a comment is prose, not a use.
const char* kDoc = "nor is std::function inside a string";
using Hook = ::std::function<void()>;  // line 12: std-function
