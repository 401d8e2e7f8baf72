"""Pipeline benchmark for rbfuq; see README.md."""
