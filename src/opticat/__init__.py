"""opticat: composable optics with executable laws and a document CLI."""

__version__ = "0.1.0"
