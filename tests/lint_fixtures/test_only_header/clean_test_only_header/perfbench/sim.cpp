#include "sim/clock.hpp"

int main() { return maxmin::sim::clock(); }
