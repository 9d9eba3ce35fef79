#include "gmp/kept.hpp"

int main() { return maxmin::gmp::kept() == 6 ? 0 : 1; }
