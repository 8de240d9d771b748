// Calls into two installed failmine archives through their installed
// headers; exits nonzero if either answers wrongly.
#include <cstdio>

#include "columnar/dictionary.hpp"
#include "predict/risk.hpp"

int main() {
  failmine::columnar::Dictionary locations;
  const bool encoded = locations.encode("R00-M0") == 0 &&
                       locations.encode("R00-M1") == 1 &&
                       locations.encode("R00-M0") == 0;
  failmine::predict::LocationPressure pressure(100.0);
  pressure.bump(0, 1.0, 0);
  const double decayed = pressure.value_at(0, 100);
  std::printf("%u locations, pressure %.4f after one tau\n", locations.size(),
              decayed);
  return encoded && decayed > 0.36 && decayed < 0.37 ? 0 : 1;
}
