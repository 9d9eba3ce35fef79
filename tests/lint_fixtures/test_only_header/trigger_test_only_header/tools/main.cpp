// A commented-out include adds no user:
// #include "net/probe.hpp"
#include "net/used.hpp"

int main() { return maxmin::net::used(); }
