"""Link-level Monte Carlo simulator and analysis toolkit for multi-access
relay networks with distributed space-time coding and zero-forcing
interference cancellation at the receiver."""

__version__ = "0.1.0"
