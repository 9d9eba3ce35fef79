#include "gmp/plan.hpp"

int main() { return maxmin::gmp::plan(); }
