// Column-limit fixture: line 7 is 80 ASCII columns, one over the limit.
// The comment below is 79 code points but more than 79 bytes (em-dashes),
// so it must not be flagged.

// —————————— xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx

int WideFixture() { return 0; }  // yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy
