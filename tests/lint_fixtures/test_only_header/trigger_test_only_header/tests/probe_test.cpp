// Test includes do not make a header used.
#include "net/probe.hpp"

int main() { return maxmin::net::probe() == 1 ? 0 : 1; }
