"""Trace-driven simulator and federated DQN trainer for runtime DNN
partitioning across a wearable-phone-cloud tier."""

__version__ = "0.1.0"
