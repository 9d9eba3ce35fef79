// Test-only, kept on purpose:
// maxmin-lint: allow-file(test-only-header) its tests are the evidence
// for a property of the paper's scenarios.
#pragma once

namespace maxmin::gmp {
int kept();
}  // namespace maxmin::gmp
